"""Regenerate ``reference.json``: the outputs the benchmark checks against.

Run from the repository root, on the commit whose outputs are the
reference (the seed code, for the file as committed):

    PYTHONPATH=src python3 benchmarks/make_reference.py

Regenerate only for a change that is meant to alter outputs, and say so in
that change: the figures must stay byte-identical and the sums must agree
to 1e-9 relative.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction

import workloads as wl
import alphacf as ac
from alphacf import cli

ROOT = os.path.dirname(wl.HERE)


def figures(workdir: str) -> dict:
    out = {}
    for which in (1, 2, 3, 4):
        path = os.path.join(workdir, f"fig{which}.csv")
        if cli.main(["figure", "--which", str(which), "--points",
                     str(wl.Figures.points), "--out", path]):
            sys.exit(f"figure {which} failed")
        out[f"fig{which}"] = wl.file_digest(path)
    holder = os.path.join(workdir, "holder.json")
    if cli.main(["holder", "--input", os.path.join(workdir, "fig4.csv"),
                 "--out", holder]):
        sys.exit("holder failed")
    with open(holder) as fh:
        out["holder"] = json.load(fh)
    return out


HEADROOM = 300


def _adaptive_b0(x) -> float:
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - HEADROOM)
    try:
        return ac.semi_brjuno(x, wl.IrrationalOrbits.b0_budget,
                              keep_terms=False).value
    finally:
        sys.setrecursionlimit(limit)


def irrational() -> dict:
    """Reference sums per pool member.

    A member whose AdaptiveReal ``semi_brjuno`` dies of RecursionError (the
    nested enclosure generators outgrow the stack on deep by-excess orbits)
    is listed under ``excluded`` instead; the timed items skip it and the
    coverage probe shows the defect.  Membership is decided with
    ``HEADROOM`` frames less than the default limit, so that a member does
    not fail when called from a deeper stack.
    """
    u = ac.make_u("log")
    io_ = wl.IrrationalOrbits
    surds, cubes, excluded = {}, {}, {}
    for key in wl.surd_pool():
        x = ac.Surd(*key)
        name = ",".join(map(str, key))
        try:
            adaptive = _adaptive_b0(ac.AdaptiveReal.from_exact(x))
        except RecursionError:
            excluded[name] = "RecursionError"
            continue
        row = {f"brjuno[{a}]": ac.brjuno_sum(x, Fraction(a), u, io_.n_max,
                                             keep_terms=False).value
               for a in io_.alphas}
        res = ac.semi_brjuno(x, io_.b0_budget, keep_terms=False,
                             with_q_series=True)
        row["semi_brjuno"] = res.value
        row["q_series"] = res.companion_q_series
        row["minus_digits"] = wl.digest(
            ac.minus_expand(x, io_.minus_digits).digits)
        row["semi_brjuno[adaptive]"] = adaptive
        surds[name] = row
    for n in wl.cube_pool():
        try:
            cubes[str(n)] = _adaptive_b0(wl.cube_root(n))
        except RecursionError:
            excluded[f"cbrt({n})"] = "RecursionError"
    return {"surds": surds, "cube": cubes, "excluded": excluded}


def main() -> None:
    workdir = os.path.join(ROOT, ".bench_out", "reference")
    os.makedirs(workdir, exist_ok=True)
    try:
        ref = {"figures": figures(workdir), "irrational": irrational()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    irr = ref["irrational"]
    print(f"wrote {wl.REFERENCE_PATH}: {len(irr['surds'])} surds, "
          f"{len(irr['cube'])} cube roots, {len(irr['excluded'])} excluded")


if __name__ == "__main__":
    main()
