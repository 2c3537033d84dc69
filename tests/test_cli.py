import json
import math

import pytest

from alphacf import exact
from alphacf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestExpand:
    def test_csv(self, capsys):
        code, out = run(capsys, "expand", "--x", "5/7", "--alpha", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,a,eps,p,q,beta"
        assert lines[1].startswith("1,1,1,1,1,")
        assert lines[-1].startswith("3,2,1,5,7,")

    def test_json(self, capsys):
        code, out = run(capsys, "--format", "json", "expand",
                        "--x", "5/7", "--alpha", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["terminated"] is True
        assert [d["a"] for d in doc["digits"]] == [1, 2, 2]

    def test_by_excess_route(self, capsys):
        code, out = run(capsys, "expand", "--x", "5/7", "--alpha", "0")
        assert code == 0
        assert out.splitlines()[0] == "n,b,p_star,q_star,beta_star,in_I_star"

    def test_surd_input(self, capsys):
        code, out = run(capsys, "expand", "--x", "(-1+1*sqrt(5))/2",
                        "--alpha", "1", "--n", "5")
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_parse_error(self, capsys):
        assert run(capsys, "expand", "--x", "oops", "--alpha", "1")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "expand", "--bogus", "1")[0] == 2


class TestScalarCommands:
    def test_brjuno_value(self, capsys):
        code, out = run(capsys, "brjuno", "--x", "(-1+1*sqrt(5))/2",
                        "--alpha", "1", "--u", "log", "--n", "120")
        doc = json.loads(out)
        assert code == 0
        g = (math.sqrt(5) - 1) / 2
        assert doc["value"] == pytest.approx(-math.log(g) / g ** 2, abs=1e-6)

    def test_b0_value(self, capsys):
        code, out = run(capsys, "b0", "--x", "5/7")
        doc = json.loads(out)
        assert code == 0
        assert doc["converged"] is True
        assert doc["istar_block_sum"] <= 2.0

    def test_ledger_csv(self, capsys):
        code, out = run(capsys, "b0", "--x", "5/7", "--ledger")
        assert code == 0
        assert out.splitlines()[0] == "n,beta_prev,x_n,term"

    def test_dict_both_ways(self, capsys):
        code, out = run(capsys, "dict", "--to", "regular",
                        "--digits", "2 2 4 tail2")
        assert (code, out.strip()) == (0, "1 2 2")
        code, out = run(capsys, "dict", "--to", "minus", "--digits", "1 2 2")
        assert (code, out.strip()) == (0, "2 2 4 tail2")


class TestSweep:
    def test_threshold_exceeded_exit_code(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(["sweep", "--kind", "b0_vs_qseries", "--corpus-size", "8",
                     "--qmax", "1000", "--n", "2000",
                     "--threshold", "1e-12", "--out", str(out_path)])
        assert code == 5
        doc = json.loads(out_path.read_text())
        assert doc["observed_sup"] > 1e-12  # report still written

    def test_empty_corpus(self, capsys):
        code, out = run(capsys, "sweep", "--kind", "b0_vs_qseries",
                        "--corpus-size", "0")
        doc = json.loads(out)
        assert code == 0
        assert doc["observed_sup"] == 0.0 and doc["corpus_size"] == 0

    def test_passing_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(["sweep", "--kind", "b0_vs_qseries", "--corpus-size", "8",
                     "--qmax", "1000", "--n", "2000", "--threshold", "25",
                     "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["stable"] is True


class TestFigure:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["figure", "--which", "2", "--points", "64", "--digits", "500"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fig4_matches_fig3_difference(self, tmp_path):
        f3, f4 = tmp_path / "f3.csv", tmp_path / "f4.csv"
        common = ["--points", "48", "--digits", "400", "--n", "80"]
        assert main(["figure", "--which", "3"] + common
                    + ["--out", str(f3)]) == 0
        assert main(["figure", "--which", "4"] + common
                    + ["--out", str(f4)]) == 0
        rows3 = f3.read_text().splitlines()[1:]
        rows4 = f4.read_text().splitlines()[1:]
        for r3, r4 in zip(rows3, rows4):
            _x, b0e, b1 = (float(t) for t in r3.split(","))
            # recomputing the difference from the published figure-3 values
            # reproduces the figure-4 column exactly, digit for digit
            assert f"{b1 - b0e:.15g}" == r4.split(",")[1]

    def test_unwritable_out(self, capsys):
        code = main(["figure", "--which", "2", "--points", "8",
                     "--digits", "100", "--out", "/nonexistent/dir/x.csv"])
        assert code == 4

    def test_bad_range(self, capsys):
        assert main(["figure", "--which", "1", "--lo", "1",
                     "--hi", "0"]) == 2


class TestHolderCommand:
    def test_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        n = 512
        rows = ["x,value"] + [
            f"{k / (n - 1)},{math.sqrt(abs(k / (n - 1) - 0.5))}"
            for k in range(n)]
        path.write_text("\n".join(rows) + "\n")
        code, out = run(capsys, "holder", "--input", str(path))
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["exponent"] - 0.5) < 0.1

    def test_missing_file(self, capsys):
        assert run(capsys, "holder", "--input", "/no/such.csv")[0] == 2


class TestBench:
    def test_smoke(self, capsys):
        code, out = run(capsys, "bench", "--alphas", "1,1/2",
                        "--digits", "60", "--reps", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("alpha,carrier,digits")
        assert len(lines) == 7  # 2 alphas x 3 carriers

    def test_empty_alpha_list(self, capsys):
        code, out = run(capsys, "bench", "--alphas", "")
        assert code == 0
        assert len(out.splitlines()) == 1  # header only


class TestPrecisionFlags:
    # a rejected run must return before any refinement loop starts; a
    # start of 0 bits used to make the p *= 2 loops spin forever
    @pytest.mark.parametrize("flags", [
        ["--precision-bits", "0"],
        ["--precision-bits", "-8"],
        ["--precision-bits", "256", "--precision-cap", "128"],
    ])
    def test_invalid_precision_rejected(self, capsys, flags):
        before = (exact.DEFAULT_BITS, exact.PRECISION_CAP)
        assert main(flags + ["bench", "--digits", "10"]) == 2
        assert "--precision-bits" in capsys.readouterr().err
        assert (exact.DEFAULT_BITS, exact.PRECISION_CAP) == before

    def test_equal_bits_and_cap_accepted(self, capsys, monkeypatch):
        # main() sets the precision globally; restore it after the test
        monkeypatch.setattr(exact, "DEFAULT_BITS", exact.DEFAULT_BITS)
        monkeypatch.setattr(exact, "PRECISION_CAP", exact.PRECISION_CAP)
        assert main(["--precision-bits", "64", "--precision-cap", "64",
                     "expand", "--x", "5/7", "--alpha", "1"]) == 0
