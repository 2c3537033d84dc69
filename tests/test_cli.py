import contextlib
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alphacf import cli, exact
from alphacf.alpha import alpha_expand
from alphacf.brjuno import (_figure_grid, brjuno_sum, figure_rows, make_u,
                            semi_brjuno)
from alphacf.byexcess import minus_expand
from alphacf.cli import _csv_text, main
from alphacf.corpus import GOLDEN, _reduced_count, rational_corpus

# sha256 of `figure --which 1..4` at the default flags (4096 points), the
# digests the benchmark reference holds
FIGURE_SHA256 = {
    1: "e66b80bd221380c87e431b163c882cbd679f213622c2e178018e993d1b373eba",
    2: "ff3e3da77391a85f43b09d695aeb0a73679b5ba405eec14380e7d00bf7956b4d",
    3: "a3e35b6a6d28d6d32602664fff031297e741aab6d4e4fa278fc99b14c334c22d",
    4: "fe715d38916151c0864ca168fa75e146c51e330b79264c404f72da15fd6aec75",
}

# sha256 of the `sweep` JSON at the default flags (100 samples, qmax 10^6,
# N = 200); alpha_vs_1 at its default alpha = 1 has sup 0, so it runs at 1/5.
# The other three kinds sum no alpha-series and report "alpha": null
SWEEP_SHA256 = {
    "b0_vs_qseries":
        "f65d5f85e073ea7c2aa5959a65a39df617f572d59279be56c4eeec2b5183a726",
    "logq_vs_loga":
        "8f808fcd9e859f570b7280297000622720e5476fc5d5757aedebae736a0cfc60",
    "b1_vs_b0even":
        "bbab44616261aa2b3369af2a089aa2c1c0281b3fd6c8dabf85182e31bef37b9b",
    "alpha_vs_1":
        "96f85335173f92d23c0baae474f62bd7272908facd4eed36a08b140448aec2d8",
}


FIGURE_NUDGE = Fraction(1, 2 * 10 ** 9)


def oracle_grid(lo, hi, points):
    """The figure grid as first written: Fraction arithmetic per point."""
    xs = []
    for k in range(points):
        x = lo + (hi - lo) * k / (points - 1)
        if x.denominator == 1:
            x = x + FIGURE_NUDGE
        xs.append(x)
    return xs


def oracle_even_csv(which, lo, hi, points, digits, n):
    """Figures 3 and 4 with B0(x) and B0(1 - x) both summed at every point."""
    u = make_u("log")
    rows = [["x", "b0even", "b1"] if which == 3 else ["x", "diff"]]
    for x in oracle_grid(lo, hi, points):
        b0e = (semi_brjuno(x, digits, keep_terms=False).value
               + semi_brjuno(1 - x, digits, keep_terms=False).value)
        b1 = brjuno_sum(x, 1, u, n, keep_terms=False).value
        if which == 3:
            rows.append([float(x), b0e, b1])
        else:
            rows.append([float(x),
                         float(f"{b1:.15g}") - float(f"{b0e:.15g}")])
    return "".join(_csv_text(rows))


@st.composite
def grid_ends(draw):
    """lo < hi, possibly negative, with equal, coprime or random
    denominators."""
    b = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("equal", "coprime", "random")))
    if kind == "equal":
        d = b
    elif kind == "coprime":
        d = b + 1
    else:
        d = draw(st.integers(1, 40))
    lo = Fraction(draw(st.integers(-4 * b, 4 * b)), b)
    hi = Fraction(draw(st.integers(-4 * d, 4 * d)), d)
    if lo == hi:
        hi += 1
    return min(lo, hi), max(lo, hi)


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

    @pytest.mark.parametrize("alpha, n, column, want", [
        ("1/2", 40, "beta",
         lambda: alpha_expand(GOLDEN, Fraction(1, 2), 40).betas[40]),
        ("0", 61, "beta_star",
         lambda: minus_expand(GOLDEN, 60).betastars[60]),
    ], ids=["beta40", "betastar60"])
    def test_beta_column_correctly_rounded(self, capsys, alpha, n, column,
                                           want):
        code, out = run(capsys, "expand", "--x", "(-1+1*sqrt(5))/2",
                        "--alpha", alpha, "--n", str(n))
        assert code == 0
        lines = out.splitlines()
        cell = lines[-1].split(",")[lines[0].split(",").index(column)]
        lo, _hi = exact.enclosure(want(), 300)
        assert cell == f"{float(lo):.15g}"

    def test_parse_error(self, capsys):
        assert run(capsys, "expand", "--x", "oops", "--alpha", "1")[0] == 2

    def test_huge_radicand_expands(self, capsys):
        # 10^29 + 319 is prime; the surd keeps it and expands like any other
        x = "(1+1*sqrt(100000000000000000000000000319))/2"
        code, out = run(capsys, "expand", "--x", x, "--alpha", "1/2",
                        "--n", "40")
        assert code == 0
        exp = alpha_expand(exact.parse_real(x), Fraction(1, 2), 40)
        assert [line.split(",")[:5] for line in out.splitlines()[1:]] == \
            [[str(n), str(d.a), str(d.eps), str(exp.p_seq[n]),
              str(exp.q_seq[n])] for n, d in enumerate(exp.digits, start=1)]

    def test_unknown_flag(self, capsys):
        assert run(capsys, "expand", "--bogus", "1")[0] == 2

    def test_big_convergents_stay_json_numbers(self, tmp_path):
        # q*_n of (2 - sqrt(3))/4 passes 4300 digits, the default
        # int-to-str limit, before n = 4000
        x, out = "(2-1*sqrt(3))/4", tmp_path / "big.json"
        assert main(["expand", "--x", x, "--alpha", "0", "--n", "4000",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text(),
                         parse_int=lambda t: int(Decimal(t)))
        exp = minus_expand(exact.parse_real(x), 4000)
        assert exp.qstar[-1].bit_length() > 4300 * math.log2(10)
        assert [c["p"] for c in doc["convergents"]] == exp.pstar
        assert [c["q"] for c in doc["convergents"]] == exp.qstar


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

    @pytest.mark.parametrize("x, n", [
        ("(1+1*sqrt(100000000000000000000000000319))/2", 10 ** 9),
        ("(-1+1*sqrt(5))/2", 10 ** 7),
    ], ids=["no_repeat", "golden"])
    def test_large_budget_brjuno_is_bounded(self, capsys, x, n):
        # past the step where beta_prev, 1/q and rho^n are all 0.0 no field
        # can change, so the walk stops there: a child process prints the
        # JSON of --n 100000 within 30 s, in under 60 MB.  A process starts
        # from the peak RSS of the one it was forked from, so a small
        # wrapper starts the child and reads its ru_maxrss
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        wrapper = ("import resource, subprocess, sys; "
                   "code = subprocess.run(sys.argv[1:]).returncode; "
                   "print(resource.getrusage(resource.RUSAGE_CHILDREN)"
                   ".ru_maxrss, file=sys.stderr); sys.exit(code)")
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, sys.executable, "-m",
             "alphacf.cli", "brjuno", "--x", x, "--alpha", "1/2", "--n",
             str(n)], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stderr.split()[-1]) < 60 * 1024   # KiB
        _code, out = run(capsys, "brjuno", "--x", x, "--alpha", "1/2",
                         "--n", "100000")
        got, want = json.loads(proc.stdout), json.loads(out)
        for key in ("value", "tail_estimate", "q_series"):
            assert got[key] == want[key], key

    @pytest.mark.parametrize("x, n", [
        (Fraction(1, 10 ** 400), 0),
        (Fraction(10 ** 400, 2 * 10 ** 400 + 1), 1),
    ], ids=["x0", "x1"])
    def test_brjuno_remainder_below_the_double_range(self, capsys, x, n):
        # x_n < 2^-1074 rounds to 0.0, where the weight is singular: a
        # DomainError naming x_n, exit 2; b0 sums it as log(den) - log(num)
        for u in ("log", "inv_sqrt"):
            assert main(["brjuno", "--x", str(x), "--u", u]) == 2
            assert capsys.readouterr().err == (
                f"error: x_{n} is below 2**-1074, outside the double range\n")
        assert run(capsys, "b0", "--x", str(x))[0] == 0

    def test_nan_sigma_exits_2(self, capsys):
        # a NaN sigma is no sigma > 1: a ConditionViolation, not "NaN"
        assert main(["brjuno", "--x", "1/3", "--u", "power",
                     "--sigma", "nan"]) == 2
        assert capsys.readouterr().out == ""

    def test_ledger_csv(self, capsys):
        code, out = run(capsys, "b0", "--x", "5/7", "--ledger")
        assert code == 0
        assert out.splitlines()[0] == "n,beta_prev,x_n,term"

    def test_brjuno_ledger_csv(self, capsys):
        # the Gauss orbit of 5/7 is 5/7, 2/5, 1/2, then 0: three terms
        code, out = run(capsys, "brjuno", "--x", "5/7", "--ledger")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,beta_prev,x_n,term"
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
        assert [r[0] for r in rows] == [0, 1, 2]
        assert [r[2] for r in rows] == [float(f"{v:.15g}")
                                        for v in (5 / 7, 2 / 5, 1 / 2)]
        _code, out = run(capsys, "brjuno", "--x", "5/7")
        assert sum(r[3] for r in rows) == \
            pytest.approx(json.loads(out)["value"], rel=1e-14)

    def test_brjuno_builds_the_ledger_only_for_ledger(self, capsys,
                                                     monkeypatch):
        kept = []

        def spy(*args, **kwargs):
            res = brjuno_sum(*args, **kwargs)
            kept.append(len(res.terms))
            return res

        monkeypatch.setattr(cli, "brjuno_sum", spy)
        for flags in ([], ["--ledger"]):
            code, _out = run(capsys, "brjuno", "--x", "5/7", *flags)
            assert code == 0
        assert kept == [0, 3]

    def test_b0_builds_the_ledger_only_for_ledger(self, capsys, monkeypatch):
        # the by-excess orbit of 5/7 is 5/7, 3/5, 1/3, then the fixed point
        # 1: three terms
        kept = []

        def spy(*args, **kwargs):
            res = semi_brjuno(*args, **kwargs)
            kept.append(len(res.terms))
            return res

        monkeypatch.setattr(cli, "semi_brjuno", spy)
        for flags in ([], ["--ledger"]):
            code, _out = run(capsys, "b0", "--x", "5/7", *flags)
            assert code == 0
        assert kept == [0, 3]

    @pytest.mark.parametrize("argv", [
        ["b0", "--x", "5/7", "--n", "-1"],
        ["b0", "--x", "(-1+1*sqrt(5))/2", "--n", "-1"],
        ["brjuno", "--x", "5/7", "--n", "-1"],
        ["figure", "--which", "2", "--points", "8", "--digits", "-1"],
        ["figure", "--which", "1", "--points", "8", "--n", "-1"],
    ], ids=["b0", "b0_surd", "brjuno", "figure_digits", "figure_n"])
    def test_negative_budget_rejected(self, capsys, argv):
        assert run(capsys, *argv)[0] == 2

    @pytest.mark.parametrize("argv", [
        ["brjuno", "--x", "-5/7"],
        ["brjuno", "--alpha", "1/2", "--x", "-5/7", "--ledger"],
        ["b0", "--x", "-5/7"], ["b0", "--x", "-.25"],
        ["figure", "--which", "2", "--lo", "-1/3", "--points", "16"],
    ], ids=["brjuno", "brjuno_ledger", "b0", "b0_decimal", "figure_lo"])
    def test_negative_literal_after_a_space(self, capsys, argv):
        # argparse reads -5/7 after a space as an option; main joins it to
        # its option, so both forms exit 0 with the same bytes
        joined = []
        for a in argv:
            if a[0] == "-" and a[1] != "-":
                joined[-1] += "=" + a
            else:
                joined.append(a)
        code, out = run(capsys, *argv)
        assert (code, out) == run(capsys, *joined) and code == 0

    def test_huge_digit_q_series(self, capsys):
        # the q-series weight u(1/a) of a = 2^1030, past the double range
        n = 2 ** 1030
        for x in (f"1/{n}", f"(-{n}+1*sqrt({n * n + 1}))/1"):
            code, out = run(capsys, "brjuno", "--x", x, "--n", "5")
            assert code == 0
            assert math.isfinite(json.loads(out)["q_series"])
        assert main(["brjuno", "--x", f"2/{2 ** 1076 - 1}",
                     "--alpha", "1/2"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: 1/a_n is below 2**-1074")

    def test_dict_both_ways(self, capsys):
        code, out = run(capsys, "dict", "--to", "regular",
                        "--digits", "2 2 4 tail2")
        assert (code, out.strip()) == (0, "1 2 2")
        code, out = run(capsys, "dict", "--to", "minus", "--digits", "1 2 2")
        assert (code, out.strip()) == (0, "2 2 4 tail2")

    def test_dict_open_prefix(self, capsys):
        # without tail2 the last run of 2's may go on: the regular digits
        # derived so far, then " ..."
        code, out = run(capsys, "dict", "--to", "regular", "--digits", "2 2 4")
        assert (code, out) == (0, "1 2 2 ...\n")


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

    @pytest.mark.parametrize("flags", [
        ["--qmax", "2", "--corpus-size", "10"],
        ["--corpus-size", "-3"],
        ["--qmax", "1", "--corpus-size", "0"],
    ], ids=["past_the_count", "negative_size", "qmax_1"])
    def test_impossible_corpus_rejected(self, flags):
        # a corpus larger than the reduced fractions with q <= qmax would
        # look for a new one forever
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "alphacf.cli", "sweep", "--kind",
             "logq_vs_loga", *flags],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=10)
        assert proc.returncode == 2, proc.stderr

    def test_impossible_corpus_names_the_size_given(self, capsys):
        # 3 is all surds, so no rationals are drawn; the message still
        # names the size the user gave
        assert main(["sweep", "--kind", "logq_vs_loga", "--corpus-size", "3",
                     "--qmax", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: need size >= 0 and qmax >= 2, got 3, 1\n")

    def test_corpus_of_every_fraction(self):
        every = {Fraction(p, q) for q in range(2, 21) for p in range(1, q)}
        assert set(rational_corpus(len(every), qmax=20)) == every
        with pytest.raises(ValueError):
            rational_corpus(len(every) + 1, qmax=20)

    def test_corpus_of_every_fraction_is_fast(self):
        # drawing with rejection would be a coupon-collector run (9.5 s)
        count = _reduced_count(400)
        start = time.process_time()
        corpus = rational_corpus(count, 400)
        assert time.process_time() - start < 1.0
        assert len(set(corpus)) == count
        assert all(0 < f < 1 and f.denominator <= 400 for f in corpus)

    @pytest.mark.parametrize("kind", sorted(SWEEP_SHA256))
    def test_sweep_bytes(self, tmp_path, kind):
        out = tmp_path / "report.json"
        flags = ["--alpha", "1/5"] if kind == "alpha_vs_1" else []
        assert main(["sweep", "--kind", kind, *flags,
                     "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == SWEEP_SHA256[kind]

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

    @pytest.mark.parametrize("which", sorted(FIGURE_SHA256))
    def test_figure_bytes(self, tmp_path, which):
        out = tmp_path / "fig.csv"
        assert main(["figure", "--which", str(which), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == FIGURE_SHA256[which]

    @given(ends=grid_ends(), points=st.sampled_from((2, 3, 17, 4096)))
    @settings(max_examples=60, deadline=None)
    @example(ends=(Fraction(0), Fraction(1)), points=4096)
    @example(ends=(Fraction(-2), Fraction(3)), points=11)
    @example(ends=(Fraction(-1, 3), Fraction(5, 3)), points=3)
    def test_grid_matches_fraction_formula(self, ends, points):
        lo, hi = ends
        pairs = list(_figure_grid(lo, hi, points))
        # B0 reads log(den): an unreduced pair would change the bytes
        assert all(q > 0 and math.gcd(p, q) == 1 for p, q in pairs)
        assert [Fraction(p, q) for p, q in pairs] == oracle_grid(lo, hi,
                                                                points)

    # figures 1 and 2 run the loops of the public sums on each point's
    # integers.  The grid steps by 1/16 from -2, over four nudged integers
    # and x_0 = 15/16, a by-excess run of 14 2's: at n = 2 and digits = 3
    # the n == n_max cut and the cut inside a run both fire
    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("n, digits", [(2, 3), (200, 2000)])
    def test_rows_match_public_sums(self, which, n, digits):
        lo, hi, points = Fraction(-2), Fraction(3, 2), 57
        u, xs = make_u("inv_sqrt"), oracle_grid(lo, hi, points)
        sums = [brjuno_sum(x, 1, u, n, keep_terms=False) if which == 1
                else semi_brjuno(x, digits, keep_terms=False) for x in xs]
        rows = list(figure_rows(which, lo, hi, points, n, digits))[1:]
        assert [(x.hex(), v.hex()) for x, v in rows] == [
            (float(x).hex(), res.value.hex()) for x, res in zip(xs, sums)]
        # a cut sum has a tail; one whose orbit ended within n has none
        assert any(res.tail_estimate for res in sums) == (n == 2)

    # symmetric grids reuse B0 at the mirror point; on the other two, 1 - x
    # is off the grid or, at the integers, not the mirror value
    @pytest.mark.parametrize("which", [3, 4])
    @pytest.mark.parametrize("grid", [
        ("0", "1", 33), ("0", "1", 34), ("1/3", "2", 40), ("-1", "1", 33),
        # lo + hi = 1 with nudged points inside; lo + hi = 1 - nudge
        ("-1", "2", 31), ("0", "1999999999/2000000000", 17),
    ], ids=["sym33", "sym34", "offgrid", "shifted", "sym_nudged",
            "near_sym"])
    def test_even_part_matches_pointwise(self, tmp_path, which, grid):
        lo, hi, points = grid
        out = tmp_path / "fig.csv"
        assert main(["figure", "--which", str(which), "--lo", lo, "--hi", hi,
                     "--points", str(points), "--digits", "2000",
                     "--out", str(out)]) == 0
        assert out.read_text() == oracle_even_csv(
            which, Fraction(lo), Fraction(hi), points, 2000, 200)

    def test_unwritable_out(self, capsys):
        code = main(["figure", "--which", "2", "--points", "8",
                     "--digits", "100", "--out", "/nonexistent/dir/x.csv"])
        assert code == 4

    def test_bad_range(self, capsys):
        assert main(["figure", "--which", "1", "--lo", "1",
                     "--hi", "0"]) == 2

    # x_0 = 10^-400 underflows at the first grid point, or at the last one
    # after two chunks of rows have gone to the file
    @pytest.mark.parametrize("grid", [
        ["--lo", f"1/{10 ** 400}", "--hi", "1"],
        ["--lo", "0", "--hi", f"{10 ** 400 + 1}/{10 ** 400}",
         "--points", "3000", "--n", "1"],
    ], ids=["first_point", "last_point"])
    def test_failed_point_leaves_no_file(self, capsys, tmp_path, grid):
        out = tmp_path / "fig.csv"
        assert main(["figure", "--which", "1", *grid,
                     "--out", str(out)]) == 2
        assert "x_0 is below 2**-1074" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_matches_out_file(self, capsys, tmp_path):
        out = tmp_path / "fig.csv"
        args = ["figure", "--which", "3", "--points", "2500",
                "--digits", "500", "--n", "80"]
        assert main(args + ["--out", str(out)]) == 0
        code, printed = run(capsys, *args)
        assert code == 0
        assert printed.encode() == out.read_bytes()

    # integer grid points: n + _NUDGE takes one step in either orbit, which
    # keeps 20000 points quick under tracemalloc.  Figures 3 and 4 may keep
    # three doubles per point; a grid held in lists takes 250-320 B
    @pytest.mark.parametrize("which, per_point", [
        (1, 0), (2, 0), (3, 24), (4, 24)])
    def test_memory_per_grid_point(self, tmp_path, which, per_point):
        out = tmp_path / "fig.csv"
        args = ["figure", "--which", str(which), "--points", "20000",
                "--lo", "0", "--hi", "19999", "--digits", "10",
                "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20000 * per_point + 2 ** 19


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

    def test_empty_file_names_the_header(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["holder", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: malformed CSV input: missing header row\n"


class TestBench:
    def test_smoke(self, capsys):
        code, out = run(capsys, "bench", "--alphas", "1,1/2",
                        "--digits", "60", "--reps", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("alpha,carrier,digits")
        assert len(lines) == 7  # 2 alphas x 3 carriers

    def test_by_excess_all_carriers(self, capsys):
        code, out = run(capsys, "bench", "--alphas", "1,0",
                        "--digits", "20", "--reps", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert all(line.split(",")[2] == "20" for line in lines[4:])

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

    def test_global_flags_before_or_after_the_subcommand(self, capsys):
        argv = ["expand", "--x", "5/7", "--alpha", "1"]
        before = run(capsys, "--format", "json", *argv)
        assert before == run(capsys, *argv, "--format", "json")
        assert json.loads(before[1])["terminated"] is True
        # the value after the subcommand wins
        assert run(capsys, "--format", "json", *argv, "--format", "csv") == \
            run(capsys, *argv)

    def test_equal_bits_and_cap_accepted(self, capsys):
        assert main(["--precision-bits", "64", "--precision-cap", "64",
                     "expand", "--x", "5/7", "--alpha", "1"]) == 0

    def test_precision_cap_reached_exits_3(self, capsys):
        # the adaptive carrier of bench needs more than 32 bits for its
        # orbit; the run ends with exit 3 and the step's message
        assert main(["--precision-bits", "16", "--precision-cap", "32",
                     "bench", "--alphas", "1", "--digits", "200",
                     "--reps", "1"]) == 3
        assert capsys.readouterr().err == (
            "error: precision cap reached: "
            "orbit step not certified at 32 bits\n")

    def test_surd_sum_at_the_lowest_cap(self, capsys):
        # a surd sum refines no enclosure, so a cap of 128 bits suffices
        assert main(["--precision-bits", "128", "--precision-cap", "128",
                     "brjuno", "--x", "(-1+1*sqrt(5))/2", "--alpha", "1/2",
                     "--n", "400"]) == 0

    @pytest.mark.parametrize("x", ["5/7", "oops"])
    def test_precision_restored_after_run(self, capsys, x):
        # the flags hold for one run only, whether it succeeds or fails
        main(["--precision-bits", "64", "--precision-cap", "256",
              "expand", "--x", x, "--alpha", "1"])
        assert (exact.DEFAULT_BITS, exact.PRECISION_CAP) == (128, 65536)
        assert exact._PRECISION.get() == (128, 65536)


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["figure", "--which", "2", "--points", "200000"],
        ["brjuno", "--x", "(1+1*sqrt(100000000000000000000000000319))/2",
         "--alpha", "1/2", "--n", "20000", "--ledger"],
    ], ids=["figure", "brjuno_ledger"])
    def test_closed_pipe_exits_4(self, argv):
        # `alphacf ... | head -1`: the reader closes the pipe after one
        # line; the next write fails, and the command names it and exits 4
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "alphacf.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 4, err
        assert err.splitlines() == [
            "error: cannot write output: [Errno 32] Broken pipe"]


# -- every input ends in a documented exit code ----------------------------

class _Slow(Exception):
    """Raised in a call past its time bound, which main() lets through."""


def _alarm(_signum, _frame):
    raise _Slow


HUGE = (2 ** 1023, 2 ** 1030, 2 ** 1075, 2 ** 1076 - 1, 10 ** 400)


@st.composite
def literals(draw):
    """(literal, huge, run): huge for a digit past 2^20, and run for an x
    whose x - floor(x) starts a by-excess run of 2's past 2^10 steps."""
    kind = draw(st.sampled_from(
        ("rational", "integer", "tiny", "near_one", "surd", "bad")))
    sign = draw(st.sampled_from(("", "-")))
    if kind == "rational":
        p, q = draw(st.integers(0, 60)), draw(st.integers(1, 60))
        return f"{sign}{p}/{q}", False, False
    if kind == "integer":
        return f"{sign}{draw(st.integers(0, 3))}", False, False
    n = draw(st.sampled_from(HUGE + (6, 1000)))
    huge = n > 2 ** 20
    if kind == "tiny":   # 1/N: one digit N, past or below the double range
        return f"{sign}{draw(st.sampled_from((1, 2)))}/{n}", huge, \
            bool(sign) and n > 2 ** 10
    if kind == "near_one":   # [0; 1, N]
        return f"{sign}{n}/{n + 1}", huge, not sign and n > 2 ** 10
    if kind == "surd":   # sqrt(N^2 + 1) - N = [0; 2N, 2N, ...]
        a = f"{-n}+1" if sign == "" else f"{n}-1"
        return f"({a}*sqrt({n * n + 1}))/1", huge, \
            bool(sign) and n > 2 ** 10
    return draw(st.sampled_from(
        ("", "x", "1/0", "(1+1*sqrt(4))/2", "--", "1e400", "nan"))), \
        False, False


ALPHA_TEXT = st.sampled_from(("0", "1", "1/2", "1/100", "2", "-1/2", "3/2"))


@st.composite
def cli_argv(draw):
    """An argv for every subcommand but bench, and whether it sums B0 over
    a by-excess run of 2's near 1 with a budget of 10^9."""
    cmd = draw(st.sampled_from(
        ("expand", "brjuno", "b0", "dict", "sweep", "figure", "holder")))
    out = draw(st.sampled_from(([], ["--out", "/nonexistent/dir/f"])))
    if cmd in ("expand", "brjuno", "b0"):
        x, huge, run = draw(literals())
        argv = [cmd, "--x", x]
        if cmd == "expand":
            # 10^4 digits of size 2^1030 make convergents of 10^7 bits
            n = draw(st.sampled_from(
                (0, 1, 40) + (() if huge else (10 ** 4,))))
            argv += ["--alpha", draw(ALPHA_TEXT),
                     "--format", draw(st.sampled_from(("csv", "json")))]
        else:
            n = draw(st.sampled_from((0, 1, 10 ** 9)))
            if draw(st.booleans()):
                argv.append("--ledger")
        if cmd == "brjuno":
            argv += ["--alpha", draw(ALPHA_TEXT), "--u", draw(
                st.sampled_from(("log", "inv_sqrt", "power", "other")))]
            sigma = draw(st.sampled_from((None, "1", "inf", "nan", "1.01")))
            argv += ["--sigma", sigma] if sigma else []
        return argv + ["--n", str(n)] + out, (
            cmd == "b0" and run and n == 10 ** 9)
    if cmd == "dict":
        digits = draw(st.lists(st.sampled_from(
            ("0", "1", "2", "3", "-2", str(2 ** 1030), "tail2", "x")),
            max_size=6))
        return ["dict", "--to", draw(st.sampled_from(("regular", "minus"))),
                "--digits", " ".join(digits)] + draw(
            st.sampled_from(([], ["--prefix"]))) + out, False
    if cmd == "sweep":
        return ["sweep", "--kind", draw(st.sampled_from(
            ("alpha_vs_1", "b0_vs_qseries", "b1_vs_b0even", "logq_vs_loga"))),
            "--corpus-size", draw(st.sampled_from(("0", "3", "7", "-1"))),
            "--qmax", draw(st.sampled_from(("1", "2", "50"))),
            "--alpha", draw(ALPHA_TEXT), "--n", draw(
                st.sampled_from(("0", "1", "30")))] + draw(st.sampled_from(
                    ([], ["--threshold", "0"], ["--u", "inv_sqrt"]))) + out, \
            False
    if cmd == "figure":
        ends = st.sampled_from(("0", "1", "-1/3", "1/2", f"1/{2 ** 1030}"))
        return ["figure", "--which", draw(st.sampled_from("12345")),
                "--lo", draw(ends), "--hi", draw(ends),
                "--points", draw(st.sampled_from(("1", "2", "17"))),
                "--n", draw(st.sampled_from(("0", "1", "200"))),
                "--digits", draw(st.sampled_from(("0", "1", "200")))] + out, \
            False
    return ["holder", "--input", draw(st.sampled_from(
        ("empty", "header", "text", "inf", "curve", "missing")))] + out, False


HOLDER_FILES = {
    "empty": "", "header": "x,value\n", "text": "x,value\n0,a\n",
    "inf": "x,value\n0,1\n1,inf\n",
    "curve": "x,value\n" + "".join(f"{k / 299},{abs(k - 150) ** 0.5}\n"
                                   for k in range(300)),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=cli_argv())
@example(case=(["brjuno", "--x", f"1/{2 ** 1030}"], False))
@example(case=(["brjuno", "--x", "-5/7"], False))
@example(case=(["sweep", "--kind", "logq_vs_loga", "--corpus-size", "3",
                "--qmax", "1"], False))
@example(case=(["dict", "--to", "minus", "--digits", f"1 {2 ** 1030}"],
               False))
def test_every_input_ends_in_a_documented_exit_code(case):
    # each call runs in-process under a 10 s bound.  A B0 budget of 10^9
    # over a by-excess run of 2's near 1 sums the run step by step (of the
    # order of 10^9 steps), so that case is left out here
    argv, long_run = case
    assume(not long_run)
    err = io.StringIO()
    old = signal.signal(signal.SIGALRM, _alarm)
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "holder":
            name, argv[2] = argv[2], os.path.join(tmp, argv[2] + ".csv")
            if name in HOLDER_FILES:
                with open(argv[2], "w") as fh:
                    fh.write(HOLDER_FILES[name])
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
