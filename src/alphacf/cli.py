"""Command line front end: each subcommand parses, calls the library, writes.

Subcommands: expand | brjuno | b0 | dict | sweep | figure | holder | bench.
CSV output is comma separated with a header row, LF line endings and 15
significant digits; identical flags and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import statistics
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from itertools import chain, islice, repeat, zip_longest

from . import exact
from .alpha import alpha_expand
from .brjuno import brjuno_sum, diff_report, figure_rows, make_u, semi_brjuno
from .byexcess import _minus_runs, minus_expand, minus_to_regular
from .corpus import SILVER, mixed_corpus
from .exact import AdaptiveReal, NeedsPrecision, _int_text, parse_real
from .holder import estimate_holder

EXIT_PARSE = 2
EXIT_PRECISION = 3
EXIT_UNWRITABLE = 4
EXIT_THRESHOLD = 5


def _write_out(text, out_path) -> None:
    # text: a str or str chunks; a failed chunk leaves no partial file
    chunks = [text] if isinstance(text, str) else text
    try:
        if out_path is None or out_path == "-":
            # a closed pipe (`| head`) fails here, not at shutdown
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
            return
        with open(out_path, "w", newline="") as fh:
            try:
                fh.writelines(chunks)
            except BaseException:
                if os.path.isfile(out_path):
                    os.remove(out_path)
                raise
    except OSError as exc:
        raise _Unwritable(str(exc)) from exc


class _Unwritable(Exception):
    pass


def _csv_text(rows):
    """The CSV text of rows, one line at a time; no cell the writers make
    (numbers, constant headers, bench's alpha) needs quoting."""
    for row in rows:
        yield ",".join(f"{v:.15g}" if isinstance(v, float) else _int_text(v)
                       for v in row) + "\n"


# -- subcommands -----------------------------------------------------------

def cmd_expand(args) -> int:
    x = parse_real(args.x)
    alpha = Fraction(args.alpha)
    # alpha = 0 prints the by-excess expansion with its symbolic 2-tail
    exp = (minus_expand(x, args.n) if alpha == 0
           else alpha_expand(x, alpha, args.n))
    _write_out(chain(exp.to_json_chunks(), "\n") if args.format == "json"
               else _csv_text(exp.to_csv_rows()), args.out)
    return 0


def cmd_brjuno(args) -> int:
    x = parse_real(args.x)
    alpha = Fraction(args.alpha)
    u = make_u(args.u, sigma=args.sigma)
    res = brjuno_sum(x, alpha, u, args.n, keep_terms=args.ledger,
                     with_q_series=not args.ledger)
    if args.ledger:
        _write_out(_csv_text(res.to_csv_rows()), args.out)
        return 0
    _write_out(json.dumps({
        "x": args.x, "alpha": str(alpha), "u": u.name, "N": res.n_max,
        "value": res.value, "tail_estimate": res.tail_estimate,
        "converged": res.converged, "q_series": res.companion_q_series,
    }) + "\n", args.out)
    return 0


def cmd_b0(args) -> int:
    x = parse_real(args.x)
    res = semi_brjuno(x, args.n, keep_terms=args.ledger,
                      with_q_series=True)
    if args.ledger:
        _write_out(_csv_text(res.to_csv_rows()), args.out)
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
        words = [str(d) for d in a] + ([] if terminated else ["..."])
        _write_out(" ".join(words) + "\n", args.out)
    else:
        big, twos = _minus_runs(digits, not args.prefix)
        _write_out(_minus_chunks(big, twos, not args.prefix), args.out)
    return 0


_RUN = 4096   # the most 2's of a run in one chunk of dict's text


def _minus_chunks(big, twos, tail):
    """The text of the by-excess stream (big, twos) of _minus_runs: each
    big digit, then its run of 2's in chunks of at most _RUN digits, so
    that no chunk grows with a digit.  A run of more than sys.maxsize
    chunks (OverflowError from repeat) or a digit past the int-to-str
    limit (ValueError) fails before the first chunk is made."""
    big = [str(big[0])] + [f" {b}" for b in big[1:]]
    plan = [chain(repeat(_RUN, q), [r] if r else [])
            for q, r in (divmod(n, _RUN) for n in twos)]
    for b, sizes in zip_longest(big, plan, fillvalue=()):
        yield b
        for k in sizes:
            yield " 2" * k
    yield " tail2\n" if tail else "\n"


def cmd_figure(args) -> int:
    rows = figure_rows(args.which, args.lo, args.hi, args.points, args.n,
                       args.digits)
    header = next(rows)
    # float cells, as _csv_text writes them, 1024 rows at a time
    line = ",".join(["%.15g"] * len(header)) + "\n"
    chunks = iter(lambda: "".join(map(line.__mod__, islice(rows, 1024))), "")
    _write_out(chain([",".join(header) + "\n"], chunks), args.out)
    return 0


def cmd_sweep(args) -> int:
    corpus = mixed_corpus(args.corpus_size, qmax=args.qmax, seed=args.seed)
    u = make_u(args.u) if args.u else None
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
            if (header := next(reader, None)) is None:
                raise ValueError("missing header row")
            col = (header.index(args.column) if args.column
                   else len(header) - 1)
            values = [float(row[col]) for row in reader]
    except (OSError, ValueError, IndexError) as exc:
        print(f"error: malformed CSV input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _write_out(json.dumps(asdict(estimate_holder(values))) + "\n", args.out)
    return 0


def _fib_fraction(n_digits: int) -> Fraction:
    a, b = 1, 1
    for _ in range(n_digits + 2):
        a, b = b, a + b
    return Fraction(a, b)


def cmd_bench(args) -> int:
    alphas = [Fraction(a) for a in args.alphas.split(",") if a.strip()] \
        if args.alphas else []
    rows = [["alpha", "carrier", "digits", "median_seconds",
             "digits_per_second"]]
    for alpha in alphas:
        carriers = [
            ("rational", _fib_fraction(min(args.digits, 2000))
             if alpha != 0 else Fraction(5, 7)),
            ("surd", SILVER),
            ("adaptive", AdaptiveReal.from_exact(SILVER)),
        ]
        for name, x in carriers:
            target = args.digits if name != "adaptive" \
                else min(args.digits, 500)
            times = []
            produced = 0
            for _ in range(args.reps):
                t0 = time.perf_counter()
                if alpha == 0:  # a by-excess tail of 2's counts as digits
                    exp = minus_expand(x, target)
                    produced = target if exp.reached_one else len(exp.digits)
                else:
                    produced = len(alpha_expand(x, alpha, target).digits)
                times.append(time.perf_counter() - t0)
            med = statistics.median(times)
            rate = produced / med if med > 0 else math.inf
            rows.append([str(alpha), name, produced, med, rate])
    _write_out(_csv_text(rows), args.out)
    return 0


# -- argument parsing ------------------------------------------------------

_GLOBAL_DEFAULTS = {"precision_bits": exact.DEFAULT_BITS,
                    "precision_cap": exact.PRECISION_CAP,
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


_PARSER = _build_parser()
_OPTION, _NEGATIVE = re.compile(r"--\w[\w-]*"), re.compile(r"-[\d.(]")


def main(argv=None) -> int:
    # argparse reads a value such as -5/7 after an option as an option of
    # its own; join it to the option, as --x=-5/7
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if _NEGATIVE.match(argv[i]) and _OPTION.fullmatch(argv[i - 1]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    try:
        args = _PARSER.parse_args(argv, argparse.Namespace(**_GLOBAL_DEFAULTS))
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    if args.precision_bits < 1 or args.precision_cap < args.precision_bits:
        print("error: need 1 <= --precision-bits <= --precision-cap",
              file=sys.stderr)
        return EXIT_PARSE
    try:
        with exact.precision(args.precision_bits, args.precision_cap):
            return args.fn(args)
    except NeedsPrecision as exc:
        print(f"error: precision cap reached: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except _Unwritable as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
