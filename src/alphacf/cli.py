"""Command line front end.

Subcommands: expand | brjuno | b0 | dict | sweep | figure | holder | bench.
CSV output is comma separated with a header row, LF line endings and 15
significant digits; identical flags and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import statistics
import sys
import time
from fractions import Fraction

from . import exact
from .alpha import alpha_expand, alpha_reduce, alpha_step
from .brjuno import brjuno_sum, diff_report, make_u, q_series, semi_brjuno
from .byexcess import minus_expand, minus_to_regular, regular_to_minus
from .corpus import mixed_corpus, surd_panel
from .exact import (AdaptiveReal, DomainError, NeedsPrecision, parse_real,
                    to_float)
from .holder import InsufficientScales, estimate_holder

EXIT_PARSE = 2
EXIT_PRECISION = 3
EXIT_UNWRITABLE = 4
EXIT_THRESHOLD = 5


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


def _write_out(text: str, out_path) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Unwritable(str(exc)) from exc


class _Unwritable(Exception):
    pass


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


# -- subcommands -----------------------------------------------------------

def cmd_expand(args) -> int:
    x = parse_real(args.x)
    alpha = Fraction(args.alpha)
    if alpha == 0:
        exp = minus_expand(x, args.n)
        if args.format == "json":
            _write_out(exp.to_json() + "\n", args.out)
        else:
            _write_out(_csv_text(exp.to_csv_rows()), args.out)
        return 0
    aexp = alpha_expand(x, alpha, args.n)
    if args.format == "json":
        _write_out(aexp.to_json() + "\n", args.out)
    else:
        _write_out(_csv_text(aexp.to_csv_rows()), args.out)
    return 0


def cmd_brjuno(args) -> int:
    x = parse_real(args.x)
    alpha = Fraction(args.alpha)
    u = make_u(args.u, sigma=args.sigma)
    res = brjuno_sum(x, alpha, u, args.n)
    if args.ledger:
        rows = [["n", "beta_prev", "x_n", "term"]] + [list(t) for t in res.terms]
        _write_out(_csv_text(rows), args.out)
        return 0
    _write_out(json.dumps({
        "x": args.x, "alpha": str(alpha), "u": u.name, "N": res.n_max,
        "value": res.value, "tail_estimate": res.tail_estimate,
        "converged": res.converged,
        "q_series": q_series(x, alpha, u, args.n),
    }) + "\n", args.out)
    return 0


def cmd_b0(args) -> int:
    x = parse_real(args.x)
    res = semi_brjuno(x, args.n, with_q_series=True)
    if args.ledger:
        rows = [["n", "beta_prev", "x_n", "term"]] + [list(t) for t in res.terms]
        _write_out(_csv_text(rows), args.out)
        return 0
    _write_out(json.dumps({
        "x": args.x, "N": res.n_max, "value": res.value,
        "q_series": res.companion_q_series,
        "istar_block_sum": res.istar_sum,
        "tail_estimate": res.tail_estimate, "converged": res.converged,
    }) + "\n", args.out)
    return 0


def cmd_dict(args) -> int:
    tokens = args.digits.split()
    tail = tokens and tokens[-1] == "tail2"
    if tail:
        tokens = tokens[:-1]
    digits = [int(t) for t in tokens]
    if args.to == "regular":
        a, terminated = minus_to_regular(digits, tail_of_twos=tail)
        text = " ".join(str(d) for d in a)
        if not terminated:
            text += " ..."
    else:
        b, tail_out = regular_to_minus(digits, terminated=not args.prefix)
        text = " ".join(str(d) for d in b)
        if tail_out:
            text += " tail2"
    _write_out(text + "\n", args.out)
    return 0


def _figure_grid(lo: Fraction, hi: Fraction, points: int) -> list[Fraction]:
    nudge = Fraction(1, 2 * 10 ** 9)
    xs = []
    for k in range(points):
        x = lo + (hi - lo) * k / (points - 1)
        if x.denominator == 1:
            x = x + nudge
        xs.append(x)
    return xs


def cmd_figure(args) -> int:
    lo, hi = Fraction(args.lo), Fraction(args.hi)
    if not lo < hi or args.points < 2:
        raise ValueError("need lo < hi and points >= 2")
    xs = _figure_grid(lo, hi, args.points)
    n = args.n
    digits = args.digits
    if args.which == 1:
        u = make_u("inv_sqrt")
        rows = [["x", "value"]]
        for x in xs:
            rows.append([to_float(x), brjuno_sum(x, 1, u, n,
                                                 keep_terms=False).value])
    elif args.which == 2:
        rows = [["x", "value"]]
        for x in xs:
            rows.append([to_float(x),
                         semi_brjuno(x, digits, keep_terms=False).value])
    else:
        u = make_u("log")
        rows = [["x", "b0even", "b1"] if args.which == 3 else ["x", "diff"]]
        for x in xs:
            b0e = (semi_brjuno(x, digits, keep_terms=False).value
                   + semi_brjuno(1 - x, digits, keep_terms=False).value)
            b1 = brjuno_sum(x, 1, u, n, keep_terms=False).value
            if args.which == 3:
                rows.append([to_float(x), b0e, b1])
            else:
                # difference of the 15-digit values figure 3 publishes, so
                # the two CSVs agree bit-for-bit
                rows.append([to_float(x),
                             float(f"{b1:.15g}") - float(f"{b0e:.15g}")])
    _write_out(_csv_text(rows), args.out)
    return 0


def cmd_sweep(args) -> int:
    corpus = mixed_corpus(args.corpus_size, qmax=args.qmax, seed=args.seed)
    u = make_u(args.u) if args.u else None
    if args.kind == "alpha_vs_1" and u is None:
        u = make_u("log")
    report = diff_report(args.kind, corpus, alpha=Fraction(args.alpha),
                         u=u, n_max=args.n, threshold=args.threshold)
    _write_out(report.to_json() + "\n", args.out)
    ok = report.stable and (args.threshold is None
                            or report.observed_sup <= args.threshold)
    return 0 if ok else EXIT_THRESHOLD


def cmd_holder(args) -> int:
    try:
        with open(args.input, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            col = (header.index(args.column) if args.column
                   else len(header) - 1)
            values = [float(row[col]) for row in reader]
    except (OSError, ValueError, StopIteration, IndexError) as exc:
        print(f"error: malformed CSV input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    est = estimate_holder(values)
    _write_out(json.dumps({
        "exponent": est.exponent,
        "scales_used": est.scales_used,
        "r2": est.r2,
    }) + "\n", args.out)
    return 0


def _fib_fraction(n_digits: int) -> Fraction:
    a, b = 1, 1
    for _ in range(n_digits + 2):
        a, b = b, a + b
    return Fraction(a, b)


def _linear_frac_adaptive(x: AdaptiveReal, p: int, q: int, pp: int, qq: int,
                          eps: int) -> AdaptiveReal:
    """Remainder x_n = -eps (p - q x)/(pp - qq x) with a flat generator."""
    def gen(bits):
        pbits = max(bits, exact.DEFAULT_BITS)
        while True:
            lo, hi = x.enclosure(pbits)
            num = sorted((p - q * hi, p - q * lo))
            den = sorted((pp - qq * hi, pp - qq * lo))
            if den[0] > 0 or den[1] < 0:
                cands = sorted(-eps * a / b for a in num for b in den)
                if cands[-1] - cands[0] <= Fraction(2) ** (1 - bits):
                    return cands[0], cands[-1]
            if pbits >= exact.PRECISION_CAP:
                raise NeedsPrecision("remainder enclosure not certified")
            pbits *= 2
    return AdaptiveReal(gen)


def _bench_digits(x, alpha: Fraction, target: int) -> int:
    """Produce up to `target` digits; by-excess tails count as digits."""
    count = 0
    if alpha == 0:
        exp = minus_expand(x, target)
        count = len(exp.digits)
        while exp.reached_one and count < target:
            count += 1  # constant-time tail of 2's
        return count
    if isinstance(x, AdaptiveReal):
        p_prev, q_prev, p, q = 1, 0, 0, 1
        eps_prev = 1
        cur = x
        while count < target:
            digit, _ = alpha_step(cur, alpha)
            p, p_prev = digit.a * p + eps_prev * p_prev, p
            q, q_prev = digit.a * q + eps_prev * q_prev, q
            eps_prev = digit.eps
            cur = _linear_frac_adaptive(x, p, q, p_prev, q_prev, digit.eps)
            count += 1
        return count
    _n0, cur = alpha_reduce(x, alpha)
    while count < target:
        try:
            digit, nxt = alpha_step(cur, alpha)
        except DomainError:
            break
        count += 1
        if exact.is_exact(nxt) and nxt == 0:
            break
        cur = nxt
    return count


def cmd_bench(args) -> int:
    alphas = [Fraction(a) for a in args.alphas.split(",") if a.strip()] \
        if args.alphas else []
    rows = [["alpha", "carrier", "digits", "median_seconds",
             "digits_per_second"]]
    silver = surd_panel()[2]
    for alpha in alphas:
        carriers = [
            ("rational", _fib_fraction(min(args.digits, 2000))
             if alpha != 0 else Fraction(5, 7)),
            ("surd", silver),
            ("adaptive", AdaptiveReal.from_exact(silver)),
        ]
        for name, x in carriers:
            target = args.digits if name != "adaptive" \
                else min(args.digits, 500)
            times = []
            produced = 0
            for _ in range(args.reps):
                t0 = time.perf_counter()
                produced = _bench_digits(x, alpha, target)
                times.append(time.perf_counter() - t0)
            med = statistics.median(times)
            rate = produced / med if med > 0 else math.inf
            rows.append([str(alpha), name, produced, med, rate])
    _write_out(_csv_text(rows), args.out)
    return 0


# -- argument parsing ------------------------------------------------------

_GLOBAL_DEFAULTS = {"precision_bits": 128, "precision_cap": 65536,
                    "format": "csv", "out": None, "seed": 0}


def _build_parser() -> argparse.ArgumentParser:
    # accepted both before and after the subcommand; SUPPRESS keeps the
    # sub-parser from clobbering values given up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int,
                        default=argparse.SUPPRESS)
    common.add_argument("--precision-cap", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("csv", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output path (default stdout)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    top = argparse.ArgumentParser(
        prog="alphacf",
        parents=[common],
        description="alpha-continued fractions, by-excess expansions and "
                    "Brjuno sums")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=lambda **kw: argparse.ArgumentParser(
                                 parents=[common], **kw))

    p = sub.add_parser("expand", help="digit/convergent table")
    p.add_argument("--x", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", type=int, default=40)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("brjuno", help="evaluate B_{alpha,u}")
    p.add_argument("--x", required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--u", default="log")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--ledger", action="store_true")
    p.set_defaults(fn=cmd_brjuno)

    p = sub.add_parser("b0", help="evaluate the semi-Brjuno sum")
    p.add_argument("--x", required=True)
    p.add_argument("--n", type=int, default=10 ** 4)
    p.add_argument("--ledger", action="store_true")
    p.set_defaults(fn=cmd_b0)

    p = sub.add_parser("dict", help="digit dictionary conversion")
    p.add_argument("--to", choices=("regular", "minus"), required=True)
    p.add_argument("--digits", required=True,
                   help='whitespace separated; "tail2" marks an open 2-run')
    p.add_argument("--prefix", action="store_true",
                   help="input is a prefix of an infinite stream")
    p.set_defaults(fn=cmd_dict)

    p = sub.add_parser("sweep", help="corpus difference report")
    p.add_argument("--kind", required=True,
                   choices=("alpha_vs_1", "b0_vs_qseries", "b1_vs_b0even",
                            "logq_vs_loga"))
    p.add_argument("--corpus-size", type=int, default=100)
    p.add_argument("--qmax", type=int, default=10 ** 6)
    p.add_argument("--alpha", default="1")
    p.add_argument("--u", default=None)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("figure", help="figure grid CSV")
    p.add_argument("--which", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--lo", default="0")
    p.add_argument("--hi", default="1")
    p.add_argument("--points", type=int, default=4096)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--digits", type=int, default=10 ** 4)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("holder", help="Hoelder exponent from a figure CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default=None)
    p.set_defaults(fn=cmd_holder)

    p = sub.add_parser("bench", help="digit throughput per alpha and carrier")
    p.add_argument("--alphas", default="1")
    p.add_argument("--digits", type=int, default=1000)
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(fn=cmd_bench)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    for key, val in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, val)
    if args.precision_bits < 1 or args.precision_cap < args.precision_bits:
        print("error: need 1 <= --precision-bits <= --precision-cap",
              file=sys.stderr)
        return EXIT_PARSE
    exact.DEFAULT_BITS = args.precision_bits
    exact.PRECISION_CAP = args.precision_cap
    try:
        return args.fn(args)
    except NeedsPrecision as exc:
        print(f"error: precision cap reached: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except _Unwritable as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    except InsufficientScales as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
