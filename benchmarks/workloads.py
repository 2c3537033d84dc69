"""The three workloads: seeded inputs, timed items and correctness checks.

Every input is generated here from the seed; nothing comes from
``alphacf.corpus``, so a change to the library's corpora cannot change what
two commits are measured on.  The library is called only through its
public names, looked up on the ``alphacf`` package (or ``alphacf.cli``) at
call time so that the traced run's rebinding is seen.

A workload yields *units*; a unit is a list of items and the timed loop
only stops between units.  An item is one timed call sequence (``run``)
plus an untimed ``check`` of its output; ``weight`` is the number of items
it counts for (a figure counts one item per grid point).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

import alphacf as ac
from alphacf import cli

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

LOG_G = math.log((math.sqrt(5) - 1) / 2)
G_F = (math.sqrt(5) - 1) / 2
GOLDEN = (-1, 1, 2, 5)     # (a, b, c, d) of (a + b*sqrt(d))/c
SILVER = (-1, 1, 1, 2)
REL_TOL = 1e-9


class Item(NamedTuple):
    name: str
    weight: int
    run: Callable[[], object]
    check: Callable[[object], bool]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


# -- figures -----------------------------------------------------------------

class Figures:
    """``alphacf figure --which 1..4 --points 4096`` plus ``holder`` on fig 4.

    The grid is the paper's; the seed only orders the four figures.  One
    unit is a whole pass, because the figures differ eightfold in cost
    and a partial pass would make the rate depend on where it stopped.
    """

    name = "figures"
    points = 4096
    trace_units = 1

    def __init__(self, seed: int, workdir: str, reference: dict):
        self.order = [1, 2, 3, 4]
        random.Random(seed).shuffle(self.order)
        self.workdir = workdir
        self.ref = reference["figures"]
        self.inputs = {"grid": [0, 1, self.points], "order": self.order}

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _item(self, which: int) -> Item:
        out = self._path(f"fig{which}.csv")
        steps = [["figure", "--which", str(which),
                  "--points", str(self.points), "--out", out]]
        if which == 4:
            steps.append(["holder", "--input", out,
                          "--out", self._path("holder.json")])

        def run():
            return [cli.main(argv) for argv in steps]

        def check(codes) -> bool:
            if any(codes) or file_digest(out) != self.ref[f"fig{which}"]:
                return False
            if which == 4:
                with open(self._path("holder.json")) as fh:
                    got = json.load(fh)
                want = self.ref["holder"]
                return (got["scales_used"] == want["scales_used"]
                        and close(got["exponent"], want["exponent"])
                        and close(got["r2"], want["r2"]))
            return True

        return Item(f"figure{which}", self.points, run, check)

    def warm_up(self) -> None:
        for which in self.order:
            pts = "256" if which == 4 else "64"
            out = self._path(f"warm{which}.csv")
            cli.main(["figure", "--which", str(which), "--points", pts,
                      "--out", out])
        cli.main(["holder", "--input", self._path("warm4.csv"),
                  "--out", self._path("warm_holder.json")])

    def units(self) -> Iterator[list[Item]]:
        unit = [self._item(w) for w in self.order]
        while True:
            yield unit


# -- corpus gate -------------------------------------------------------------

def euclid_digits(x: Fraction) -> list[int]:
    """Regular continued fraction digits of x in (0, 1), canonical form."""
    p, q = x.numerator, x.denominator
    out = []
    while p:
        out.append(q // p)
        q, p = p, q % p
    return out


class CorpusGate:
    """Acceptance criteria 1, 2, 5 and 7 at reduced size on seeded p/q.

    Each rational is one unit of four items: ``alpha_expand`` at 600 digits
    followed by the three identity checks, for alpha in {1, 1/2, 1/5}; and
    the by-excess item (``minus_expand``, dictionary round trip,
    ``semi_brjuno`` with its q-series).

    By-excess lengths (about the sum of the regular digits) are heavy
    tailed: uncapped, the mean over 1500 draws moves 60 % from seed to seed
    and one draw can cost half a second and 50 MB.  So the seeded draws keep
    digit sums <= ``digit_sum_cap``, and every run starts with the fixed
    deep rational ``DEEP`` (a run of 4998 by-excess 2's), which sets the
    long-orbit cost and the memory high-water mark the same way for every
    seed.
    """

    name = "corpus-gate"
    alphas = (Fraction(1), Fraction(1, 2), Fraction(1, 5))
    digits = 600
    budget = 10 ** 6
    qmax = 10 ** 6
    size = 5000
    digit_sum_cap = 300
    trace_units = 100
    DEEP = Fraction(4999, 5000)

    def __init__(self, seed: int, workdir: str, reference: dict):
        rng = random.Random(seed)
        seen = {self.DEEP}
        self.xs: list[Fraction] = [self.DEEP]
        while len(self.xs) < self.size:
            q = rng.randrange(2, self.qmax + 1)
            x = Fraction(rng.randrange(1, q), q)
            if x not in seen and sum(euclid_digits(x)) <= self.digit_sum_cap:
                seen.add(x)
                self.xs.append(x)
        self.inputs = [str(x) for x in self.xs]

    def _alpha_item(self, x: Fraction, alpha: Fraction) -> Item:
        def run():
            exp = ac.alpha_expand(x, alpha, self.digits)
            return (exp, ac.beta_check(exp), ac.reconstruction_check(exp),
                    ac.decay_check(exp))

        def check(out) -> bool:
            exp, rep, rec_ok, decay_ok = out
            dets_ok = all(c.det in (-1, 1)
                          and c.p_prev * c.q - c.q_prev * c.p == c.det
                          for c in exp.convergents)
            exact = (Fraction(exp.p_seq[-1], exp.q_seq[-1])
                     == x - exp.integer_part)
            return (rep.all_ok and all(rep.lemma1_ok) and rec_ok and decay_ok
                    and dets_ok and exp.terminated and exact)

        return Item(f"alpha_expand[{alpha}]", 1, run, check)

    def _minus_item(self, x: Fraction) -> Item:
        def run():
            m = ac.minus_expand(x, self.budget)
            a, terminated = ac.minus_to_regular(m.digits, tail_of_twos=True)
            b, tail2 = ac.regular_to_minus(a)
            res = ac.semi_brjuno(x, self.budget, keep_terms=False,
                                 with_q_series=True)
            return m, a, terminated, b, tail2, res

        def check(out) -> bool:
            m, a, terminated, b, tail2, res = out
            return (m.reached_one and terminated and tail2
                    and a == euclid_digits(x) and b == m.digits
                    and res.converged and math.isfinite(res.value)
                    and abs(res.value - res.companion_q_series) <= 25.0
                    and res.istar_sum <= 2.0)

        return Item("minus_expand+dict+semi_brjuno", 1, run, check)

    def _unit(self, x: Fraction) -> list[Item]:
        return ([self._alpha_item(x, a) for a in self.alphas]
                + [self._minus_item(x)])

    def warm_up(self) -> None:
        for item in self._unit(Fraction(355, 1133)):
            item.run()

    def units(self) -> Iterator[list[Item]]:
        while True:
            for x in self.xs:
                yield self._unit(x)


# -- irrational orbits -------------------------------------------------------

POOL_RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13)
POOL_DENOMINATORS = (1, 2, 3, 4)
POOL_B = (1, -1, 2)
CUBE_POOL = range(2, 401)


def _in_unit_interval(a: int, b: int, c: int, d: int) -> bool:
    """0 < (a + b*sqrt(d))/c < 1 for c > 0, decided in integers."""
    r2 = b * b * d                     # (b*sqrt(d))^2
    if b > 0:
        positive = a >= 0 or r2 > a * a
        below = c - a > 0 and r2 < (c - a) ** 2
    else:
        positive = a > 0 and a * a > r2
        below = a - c < 0 or (a - c) ** 2 < r2
    return positive and below


def surd_pool() -> list[tuple[int, int, int, int]]:
    """Canonical (a, b, c, d) with (a + b*sqrt(d))/c in (0, 1)."""
    out = set()
    for d in POOL_RADICANDS:
        for c in POOL_DENOMINATORS:
            for b in POOL_B:
                reach = abs(b) * (math.isqrt(d) + 1) + c
                for a in range(-reach, reach + 1):
                    if not _in_unit_interval(a, b, c, d):
                        continue
                    g = math.gcd(math.gcd(a, b), c)
                    out.add((a // g, b // g, c // g, d))
    return sorted(out)


def cube_pool() -> list[int]:
    return [n for n in CUBE_POOL if icbrt(n) ** 3 != n]


def icbrt(n: int) -> int:
    """floor(n ** (1/3)) for n >= 1, by integer Newton iteration."""
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x ** 3 > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def cube_root(n: int) -> "ac.AdaptiveReal":
    """The cube root of n as an AdaptiveReal with dyadic enclosures."""
    def generator(bits: int):
        k = icbrt(n << (3 * bits))
        return Fraction(k, 1 << bits), Fraction(k + 1, 1 << bits)
    return ac.AdaptiveReal(generator)


def closed_forms() -> dict:
    """Criterion 3's closed forms, keyed by (surd key, item name)."""
    silver = -math.log(math.sqrt(2) - 1) / (2 - math.sqrt(2))
    g = ",".join(map(str, GOLDEN))
    return {
        (g, "brjuno[1]"): -LOG_G / G_F ** 2,
        (g, "brjuno[1/2]"): -2 * LOG_G / G_F,
        (g, "semi_brjuno"): -3 * LOG_G,
        (g, "semi_brjuno[adaptive]"): -3 * LOG_G,
        (",".join(map(str, SILVER)), "brjuno[1]"): silver,
    }


class IrrationalOrbits:
    """Eventually periodic orbits of quadratic surds, plus cube roots.

    One unit is a whole pass of ``pass_size`` surds, each paired with a cube
    root: the golden mean, sqrt(2) - 1 and a seeded sample of the surd
    pool.  The three ``HEAVY_CUBES`` take 0.3-1.7 s each (the median cube
    root takes 13 ms; ∛122 alone lifts peak RSS from 36 to 72 MB), so they
    sit in every pass and the seeded cube roots come from the rest: a seed
    that drew one would otherwise read 10 % slower.  The pools are the
    members ``reference.json`` holds values for: those whose AdaptiveReal
    orbit the seed code can follow without a RecursionError.
    """

    name = "irrational-orbits"
    alphas = ("1", "1/2", "1/5")
    n_max = 400
    minus_digits = 200
    b0_budget = 10 ** 4
    pass_size = 30
    trace_units = 1
    HEAVY_CUBES = (122, 213, 131)
    WARM_CUBE = 2

    def __init__(self, seed: int, workdir: str, reference: dict):
        self.ref = reference["irrational"]
        pool = [k for k in surd_pool()
                if ",".join(map(str, k)) in self.ref["surds"]]
        cubes = [n for n in cube_pool()
                 if str(n) in self.ref["cube"] and n not in self.HEAVY_CUBES]
        rng = random.Random(seed)
        rest = [k for k in pool if k not in (GOLDEN, SILVER)]
        keys = [GOLDEN, SILVER] + rng.sample(rest, self.pass_size - 2)
        light = len(keys) - len(self.HEAVY_CUBES)
        roots = list(self.HEAVY_CUBES) + [rng.choice(cubes)
                                          for _ in range(light)]
        self.pairs = list(zip(keys, roots))
        self.closed = closed_forms()
        self.u = ac.make_u("log")
        self.inputs = [list(k) + [n] for k, n in self.pairs]

    def _value_item(self, key: str, name: str, call) -> Item:
        ref = self.ref["surds"][key]
        want = [ref[name]]
        if (key, name) in self.closed:
            want.append(self.closed[(key, name)])

        def check(res) -> bool:
            return (all(close(res.value, w) for w in want)
                    and (res.companion_q_series is None
                         or close(res.companion_q_series, ref["q_series"])))

        return Item(name, 1, call, check)

    def _unit(self, surd_key, n: int) -> list[Item]:
        x = ac.Surd(*surd_key)
        key = ",".join(map(str, surd_key))
        ref = self.ref["surds"][key]
        items = [self._value_item(
            key, f"brjuno[{a}]",
            lambda a=Fraction(a): ac.brjuno_sum(x, a, self.u, self.n_max,
                                                keep_terms=False))
            for a in self.alphas]
        items.append(self._value_item(
            key, "semi_brjuno",
            lambda: ac.semi_brjuno(x, self.b0_budget, keep_terms=False,
                                   with_q_series=True)))

        def minus():
            return ac.minus_expand(x, self.minus_digits)

        def minus_check(m) -> bool:
            return (len(m.digits) == self.minus_digits
                    and digest(m.digits) == ref["minus_digits"])

        items.append(Item("minus_expand", 1, minus, minus_check))
        items.append(self._value_item(
            key, "semi_brjuno[adaptive]",
            lambda: ac.semi_brjuno(ac.AdaptiveReal.from_exact(x),
                                   self.b0_budget, keep_terms=False)))
        cube_want = self.ref["cube"][str(n)]
        items.append(Item(
            "semi_brjuno[cube_root]", 1,
            lambda: ac.semi_brjuno(cube_root(n), self.b0_budget,
                                   keep_terms=False),
            lambda res: close(res.value, cube_want)))
        return items

    def warm_up(self) -> None:
        for item in self._unit(SILVER, self.WARM_CUBE):
            item.run()

    def units(self) -> Iterator[list[Item]]:
        unit = [item for key, n in self.pairs for item in self._unit(key, n)]
        while True:
            yield unit


WORKLOADS = {w.name: w for w in (Figures, CorpusGate, IrrationalOrbits)}


# -- carrier-coverage probe ----------------------------------------------------

def coverage_probe(workdir: str) -> dict[str, str]:
    """Call each L2/L3 entry point once per carrier; return the failures.

    Failures are reported, never counted as failed items: the known
    AdaptiveReal and ``bench --alphas 0`` defects must show here without a
    fix reading as a throughput change.
    """
    golden = ac.Surd(*GOLDEN)
    carriers = {
        "Fraction": Fraction(13, 31),
        "Surd": golden,
        "AdaptiveReal": ac.AdaptiveReal.from_exact(golden),
    }
    u = ac.make_u("log")
    half = Fraction(1, 2)
    calls = {
        "alpha_expand": lambda x: ac.alpha_expand(x, half, 20),
        "minus_expand": lambda x: ac.minus_expand(x, 20),
        "brjuno_sum": lambda x: ac.brjuno_sum(x, half, u, 20),
        "semi_brjuno": lambda x: ac.semi_brjuno(x, 20),
        "q_series": lambda x: ac.q_series(x, half, u, 20),
    }
    failures = {}
    for fname, call in calls.items():
        for cname, x in carriers.items():
            try:
                call(x)
            except Exception as exc:  # the probe reports every failure
                failures[f"{fname}/{cname}"] = f"{type(exc).__name__}: {exc}"
    # a cube root whose by-excess orbit outgrows the nested AdaptiveReal
    # enclosure generators: RecursionError at the default recursion limit
    try:
        ac.semi_brjuno(cube_root(4), IrrationalOrbits.b0_budget,
                       keep_terms=False)
    except Exception as exc:
        failures["semi_brjuno/AdaptiveReal deep orbit"] = (
            f"{type(exc).__name__}: {exc}")
    argv = ["bench", "--alphas", "0", "--digits", "10", "--reps", "1",
            "--out", os.path.join(workdir, "bench.csv")]
    try:
        code = cli.main(argv)
        if code:
            failures["cli bench --alphas 0"] = f"exit code {code}"
    except Exception as exc:
        failures["cli bench --alphas 0"] = f"{type(exc).__name__}: {exc}"
    return failures
