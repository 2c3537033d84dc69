"""Differential tests: the integer-state paths of the sums against the
expansion-based reference they replaced.

The oracles below recompute each sum the way it was computed before the
integer-state orbits existed: ``brjuno_sum`` and ``q_series`` from
``alpha_expand``, ``semi_brjuno`` from ``minus_expand`` and two logs per
term, log(den) - log(num), each taken afresh (and the 1e-22 cut for
surds).  A Surd's orbit comes from the public ``alpha_step``/``minus_step``
chain instead, and each of its doubles from an ``AdaptiveReal`` enclosure,
so the oracle shares neither the (P, Q, D) walk nor the integer-rounded
double with the code under test.  Every input must agree bit for bit: both
doubles are correctly rounded.

The kernel section checks ``alpha._orbit``, its records unrolled into
steps, step by step against the exact ``alpha_step``/``minus_step`` chains, and ``alpha_expand``/``minus_expand``
against expansions built from those chains.  The last section checks the
orbit across carriers: an AdaptiveReal, which walks a certified enclosure,
must give exactly what the Surd or Fraction it encloses gives, and the
integer-rounded double of a Surd must be the double its enclosures certify.
"""

import math
import random
from collections import deque
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alphacf import exact
from alphacf.alpha import (_alpha_seed, _orbit, _surd_state, alpha_bar,
                          alpha_expand, alpha_reduce, alpha_step, decay_check,
                          rho_alpha)
from alphacf.brjuno import (BrjunoResult, _inv, _logq_vs_loga,
                            brjuno_sum, log_denominator_sum, make_u,
                            q_series, semi_brjuno)
from alphacf.byexcess import _reduce_mod1, minus_expand, minus_step
from alphacf.corpus import surd_corpus
from alphacf.exact import AdaptiveReal, Surd, is_exact, sign_val, to_float

ALPHAS = (Fraction(1), Fraction(1, 2), Fraction(1, 5), Fraction(3, 7),
          Fraction(9, 10))
WEIGHTS = {name: make_u(name) for name in ("log", "inv_sqrt")}
N_MAX = (0, 1, 5, 200)
NUDGE = Fraction(1, 10 ** 9)
FIGURE_NUDGE = Fraction(1, 2 * 10 ** 9)   # what `figure` adds at integers
DEEP = Fraction(4999, 5000)   # 4998 by-excess 2's before the orbit hits 1
# F_150/F_151: beta* falls below 1e-22 long before the orbit ends, which
# cuts surd sums but not rational ones
FIB = Fraction(9969216677189303386214405760200,
               16130531424904581415797907386349)
SURDS = surd_corpus(20)
# (a + b sqrt(d))/c with b in {+-1, +-2} and c in 1..4: a seeded sample,
# plus the members whose two roots both lie in (0, 1), (2 +- sqrt(2))/4 and
# (2 +- sqrt(3))/4, on which the (P + sqrt(D))/Q walk of x - floor(x)
# starts with Q_1 < 0
Q1_NEGATIVE = [Surd(2, b, 4, d) for d in (2, 3) for b in (1, -1)]
_rng = random.Random(8)
MIXED_SURDS = [Surd(_rng.randint(-9, 9), _rng.choice((1, -1, 2, -2)),
                    _rng.randint(1, 4), _rng.choice((2, 3, 5, 6, 7, 10, 11)))
               for _ in range(24)] + Q1_NEGATIVE
NEAR_ONE = Surd(0, 1, 1000, 999999)   # 1 - 5e-7: a long by-excess run of 2's
# the golden mean written over a radicand that is not square-free
GOLDEN_20 = Surd(-2, 1, 4, 20)
G = Surd(-1, 1, 2, 5)


# -- oracles ---------------------------------------------------------------

def oracle_float(xn):
    """The double of a remainder; a Surd's is certified by its enclosures."""
    if isinstance(xn, Surd):
        return exact._nearest_float(AdaptiveReal.from_exact(xn))
    return to_float(xn)


def expansion_fields(x, alpha, max_digits):
    """(digits, remainders, q_seq, terminated) of alpha_expand; for a Surd,
    of the alpha_step chain, which does not walk (P, Q, D) states."""
    if isinstance(x, Surd):
        _n0, _eps0, steps, remainders, _betas, _p_seq, q_seq, ended = \
            oracle_alpha_expand(x, alpha, max_digits)
        return [a for a, _eps in steps], remainders, q_seq, ended
    exp = alpha_expand(x, alpha, max_digits)
    return ([d.a for d in exp.digits], exp.remainders, exp.q_seq,
            exp.terminated)


def oracle_brjuno_sum(x, alpha, u, n_max, keep_terms=True):
    alpha = Fraction(alpha)
    _digits, remainders, _q_seq, terminated = expansion_fields(x, alpha,
                                                               n_max)
    beta_prev = 1.0
    value = 0.0
    terms = []
    u_recent = []
    last_term = math.inf
    for n, xn in enumerate(remainders):
        if is_exact(xn) and sign_val(xn) == 0:
            last_term = 0.0
            break
        xf = oracle_float(xn)
        uval = u.eval(xf)
        term = beta_prev * uval
        value += term
        last_term = term
        u_recent = (u_recent + [uval])[-5:]
        if keep_terms:
            terms.append((n, beta_prev, xf, term))
        beta_prev *= xf
    rho = to_float(rho_alpha(alpha))
    abar = float(alpha_bar(alpha))
    scale = max(u_recent, default=0.0)
    tail = abar * rho ** n_max / (1.0 - rho) * max(scale, u.M1)
    if terminated:
        tail = 0.0
    converged = terminated or (last_term < 1e-12 and tail < 1e-6)
    return BrjunoResult(value, n_max, terms, tail, converged)


def oracle_q_series(x, alpha, u, n_max):
    digits, _rem, q_seq, _ended = expansion_fields(x, Fraction(alpha),
                                                   n_max + 1)
    total = 0.0
    for n, a in enumerate(digits):
        total += u.eval(1.0 / a) * _inv(q_seq[n])
    return total


def oracle_semi_brjuno(x, n_max, keep_terms=True, with_q_series=False):
    """The by-excess orbit read off minus_expand, or for a Surd off the
    minus_step chain; surds stop at beta < 1e-22."""
    # the sum looks at x_0 .. x_{n_max} and the digit after each of them
    if isinstance(x, Surd):
        _x0, digits, remainders, _pstar, qstar, _betas, _one = \
            oracle_minus_expand(x, n_max + 1)
    else:
        m = minus_expand(x, n_max + 1)
        digits, remainders, qstar = m.digits, m.remainders, m.qstar
    value = qs = istar = 0.0
    beta = 1.0
    terms = []
    reached_one = False
    for n, xn in enumerate(remainders[:n_max + 1]):
        if xn == 1:
            reached_one = True
            break
        xf = oracle_float(xn)
        if isinstance(xn, Fraction):
            term = beta * (math.log(xn.denominator) - math.log(xn.numerator))
        else:
            term = beta * -math.log(xf)
        value += term
        b = digits[n]
        if b == 2:
            istar += term
        else:
            qs += math.log(b - 1) * _inv(qstar[n])
        if keep_terms:
            terms.append((n, beta, xf, term))
        beta *= xf
        if not isinstance(xn, Fraction) and beta < 1e-22:
            break
    tail = 0.0 if reached_one else 2.0 * beta
    return BrjunoResult(value, n_max, terms, tail,
                        reached_one or tail < 1e-12,
                        companion_q_series=qs if with_q_series else None,
                        istar_sum=istar)


def oracle_decay_check(exp, max_index=50):
    """The decay bounds against the Surd powers abar * rho^n, unsquared."""
    rho = rho_alpha(exp.alpha)
    bound = alpha_bar(exp.alpha)
    for n in range(min(max_index + 1, len(exp.betas))):
        try:
            if exact.compare(exp.betas[n], bound) > 0:
                return False
        except exact.NeedsPrecision:
            pass
        if n + 1 < len(exp.q_seq):
            if exact.compare(Fraction(1, exp.q_seq[n + 1]),
                             bound * (1 + exp.alpha)) >= 0:
                return False
        bound = rho * bound
    return True


def oracle_log_denominator_sum(x, n_max):
    _digits, _rem, q_seq, _ended = expansion_fields(x, Fraction(1), n_max)
    return sum(math.log(q) * _inv(q) for q in q_seq[1:] if q > 1)


def oracle_logq_vs_loga(x, n_max):
    digits, _rem, q_seq, _ended = expansion_fields(x, Fraction(1), n_max)
    s_q = s_a = 0.0
    for n, a in enumerate(digits):
        s_q += math.log(q_seq[n + 1]) * _inv(q_seq[n])
        s_a += math.log(a) * _inv(q_seq[n])
    return abs(s_q - s_a)


# -- comparison ------------------------------------------------------------

def fingerprint(res: BrjunoResult):
    return (res.value, res.n_max, res.terms, res.tail_estimate,
            res.converged, res.companion_q_series, res.istar_sum)


def agree(got, want, rel=0.0) -> bool:
    """Same structure and values; floats bit for bit, or to rel relative."""
    if isinstance(want, float):
        if rel == 0.0:
            return got.hex() == want.hex()
        return math.isclose(got, want, rel_tol=rel)
    if isinstance(want, (tuple, list)):
        return (len(got) == len(want)
                and all(agree(g, w, rel) for g, w in zip(got, want)))
    return got == want


# -- inputs ----------------------------------------------------------------

@st.composite
def alpha_inputs(draw):
    """(alpha, x): a random rational or one on a boundary of A_alpha."""
    alpha = draw(st.sampled_from(ALPHAS))
    n = draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(
        ("random", "n+alpha", "n+1-alpha", "integer", "int", "deep",
         "surd")))
    if kind == "random":
        return alpha, Fraction(draw(st.integers(-10 ** 7, 10 ** 7)),
                               draw(st.integers(1, 10 ** 6)))
    if kind == "int":
        return alpha, n
    if kind == "surd":
        return alpha, draw(st.sampled_from(SURDS + MIXED_SURDS))
    base = {"n+alpha": n + alpha, "n+1-alpha": n + 1 - alpha,
            "integer": Fraction(n), "deep": DEEP}[kind]
    return alpha, base + draw(st.sampled_from((0, NUDGE, -NUDGE)))


rationals = st.one_of(
    st.builds(Fraction, st.integers(-10 ** 7, 10 ** 7),
              st.integers(1, 10 ** 6)),
    st.integers(-3, 3),
    st.builds(lambda n, k, d: n + Fraction(1, k) + d, st.integers(-3, 3),
              st.integers(1, 50), st.sampled_from((0, NUDGE, -NUDGE))),
    st.sampled_from((DEEP, 1 - DEEP, -DEEP, FIB)),
)
reals = st.one_of(rationals, st.sampled_from(SURDS + MIXED_SURDS))


# -- properties ------------------------------------------------------------

@given(inp=alpha_inputs(), u_name=st.sampled_from(sorted(WEIGHTS)),
       n_max=st.sampled_from(N_MAX), keep_terms=st.booleans())
@settings(max_examples=300, deadline=None)
@example(inp=(Fraction(1), DEEP), u_name="log", n_max=200, keep_terms=True)
@example(inp=(Fraction(1, 2), Fraction(1, 2)), u_name="inv_sqrt", n_max=0,
         keep_terms=True)
# (2 + sqrt(3))/4 meets Q_1 < 0 at alpha = 1, where the floor needs its + 1
@example(inp=(Fraction(1), Q1_NEGATIVE[2]), u_name="log", n_max=200,
         keep_terms=True)
# 13/21 has six Gauss records and 21/34 seven: the cut at n_max = 5 lands
# on the last record of 13/21, which still reports the heuristic tail
@example(inp=(Fraction(1), Fraction(13, 21)), u_name="log", n_max=5,
         keep_terms=True)
@example(inp=(Fraction(1), Fraction(13, 21)), u_name="inv_sqrt", n_max=5,
         keep_terms=False)
@example(inp=(Fraction(1), Fraction(13, 21)), u_name="log", n_max=1,
         keep_terms=False)
@example(inp=(Fraction(1), Fraction(13, 21)), u_name="inv_sqrt", n_max=1,
         keep_terms=True)
@example(inp=(Fraction(1), Fraction(21, 34)), u_name="log", n_max=5,
         keep_terms=False)
@example(inp=(Fraction(1), Fraction(21, 34)), u_name="inv_sqrt", n_max=5,
         keep_terms=True)
@example(inp=(Fraction(1), Fraction(21, 34)), u_name="log", n_max=1,
         keep_terms=True)
@example(inp=(Fraction(1), Fraction(21, 34)), u_name="inv_sqrt", n_max=1,
         keep_terms=False)
def test_brjuno_sum_matches_oracle(inp, u_name, n_max, keep_terms):
    alpha, x = inp
    u = WEIGHTS[u_name]
    assert agree(fingerprint(brjuno_sum(x, alpha, u, n_max, keep_terms)),
                 fingerprint(oracle_brjuno_sum(x, alpha, u, n_max,
                                               keep_terms)))


@given(inp=alpha_inputs(), u_name=st.sampled_from(sorted(WEIGHTS)),
       n_max=st.sampled_from(N_MAX))
@settings(max_examples=200, deadline=None)
@example(inp=(Fraction(1), Q1_NEGATIVE[2]), u_name="log", n_max=200)
def test_q_series_matches_oracle(inp, u_name, n_max):
    alpha, x = inp
    u = WEIGHTS[u_name]
    want = oracle_q_series(x, alpha, u, n_max)
    assert agree(q_series(x, alpha, u, n_max), want)
    assert agree(brjuno_sum(x, alpha, u, n_max, keep_terms=False,
                            with_q_series=True).companion_q_series, want)


@given(x=reals, n_max=st.sampled_from(N_MAX), keep_terms=st.booleans(),
       with_q=st.booleans())
@settings(max_examples=300, deadline=None)
@example(x=Fraction(1, 2), n_max=0, keep_terms=True, with_q=True)
@example(x=Fraction(1, 2), n_max=1, keep_terms=True, with_q=True)
@example(x=DEEP, n_max=10 ** 4, keep_terms=False, with_q=True)
@example(x=FIB, n_max=200, keep_terms=True, with_q=True)
# the figures' long run, an empty orbit, and the first (n = 0) log of den
@example(x=1 - FIGURE_NUDGE, n_max=10 ** 4, keep_terms=False, with_q=True)
@example(x=Fraction(3), n_max=5, keep_terms=True, with_q=True)
@example(x=Fraction(-7, 3), n_max=0, keep_terms=True, with_q=True)
@example(x=Fraction(-7, 3), n_max=1, keep_terms=True, with_q=True)
@example(x=Q1_NEGATIVE[0], n_max=200, keep_terms=True, with_q=True)
@example(x=Q1_NEGATIVE[2], n_max=200, keep_terms=True, with_q=False)
# the q*-recurrence runs only on request; a budget that cuts a run of 2's
@example(x=DEEP, n_max=10 ** 4, keep_terms=True, with_q=False)
@example(x=1 - FIGURE_NUDGE, n_max=10 ** 4, keep_terms=False, with_q=False)
@example(x=DEEP, n_max=200, keep_terms=True, with_q=True)
def test_semi_brjuno_matches_oracle(x, n_max, keep_terms, with_q):
    assert agree(fingerprint(semi_brjuno(x, n_max, keep_terms, with_q)),
                 fingerprint(oracle_semi_brjuno(x, n_max, keep_terms,
                                                with_q)))


@given(x=reals, n_max=st.sampled_from(N_MAX))
@settings(max_examples=150, deadline=None)
def test_log_sums_match_oracle(x, n_max):
    assert agree(log_denominator_sum(x, n_max),
                 oracle_log_denominator_sum(x, n_max))
    assert agree(_logq_vs_loga(x, n_max), oracle_logq_vs_loga(x, n_max))


def test_reached_one_only_within_budget():
    # 1/2 -> 1 after one by-excess step: a budget of 0 steps stops short
    short = semi_brjuno(Fraction(1, 2), 0)
    assert (short.converged, short.tail_estimate) == (False, 1.0)
    full = semi_brjuno(Fraction(1, 2), 1)
    assert (full.converged, full.tail_estimate) == (True, 0.0)


# a budget that ends part-way through one run of 2's: 4999/5000 runs 4998
# steps and 1 - 1/(2*10^9) about 2*10^9, both from the first step on
@pytest.mark.parametrize("x", [DEEP, 1 - FIGURE_NUDGE], ids=str)
@pytest.mark.parametrize("n_max", [7, 100, 10 ** 4])
@pytest.mark.parametrize("keep_terms, with_q",
                         [(False, False), (False, True), (True, False),
                          (True, True)])
def test_budget_cuts_a_run(x, n_max, keep_terms, with_q):
    assert agree(fingerprint(semi_brjuno(x, n_max, keep_terms, with_q)),
                 fingerprint(oracle_semi_brjuno(x, n_max, keep_terms,
                                                with_q)))


# both regimes of rho: sqrt(1 - 2 alpha) below sqrt(2) - 1, then the silver
# and golden constants
DECAY_ALPHAS = (Fraction(1, 5), Fraction(1, 10), Fraction(3, 10),
                Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(1))


# surd betas over the radicand 20 against rho over 5 (alpha = 1), over
# sqrt(3) against sqrt(5) or sqrt(2), and a long run of 2's: the integer
# signs with one or two radicals
DECAY_SURDS = [GOLDEN_20, NEAR_ONE, *Q1_NEGATIVE, Surd(-1, 1, 1, 3)]


@given(alpha=st.sampled_from(DECAY_ALPHAS),
       x=st.one_of(reals, st.sampled_from(DECAY_SURDS)),
       carrier=st.sampled_from(("exact", "adaptive")),
       depth=st.sampled_from((0, 3, 25)),
       scale=st.sampled_from((Fraction(1), Fraction(3, 2))),
       q_div=st.sampled_from((1, 3)))
@settings(max_examples=200, deadline=None)
@example(alpha=Fraction(1), x=GOLDEN_20, carrier="exact", depth=25,
         scale=Fraction(1), q_div=1)
@example(alpha=Fraction(1), x=Q1_NEGATIVE[2], carrier="exact", depth=25,
         scale=Fraction(3, 2), q_div=1)
@example(alpha=Fraction(1, 2), x=GOLDEN_20, carrier="exact", depth=25,
         scale=Fraction(1), q_div=3)
@example(alpha=Fraction(1, 5), x=NEAR_ONE, carrier="exact", depth=25,
         scale=Fraction(3, 2), q_div=1)
def test_decay_check_matches_oracle(alpha, x, carrier, depth, scale, q_div):
    # scaled betas and shrunk q's make either bound fail, so both answers
    # of the squared comparisons are exercised
    if carrier == "adaptive":
        x = AdaptiveReal.from_exact(x)
    exp = alpha_expand(x, alpha, depth)
    exp.betas = [b.mobius(scale.numerator, 0, 0, scale.denominator)
                 if isinstance(b, AdaptiveReal) else b * scale
                 for b in exp.betas]
    exp.q_seq = [max(1, q // q_div) for q in exp.q_seq]
    assert decay_check(exp) == oracle_decay_check(exp)


@pytest.mark.parametrize("alpha, betas", [
    # alpha = 1/5: abar^2 = 16/25, rho^2 = 3/5, beta_n^2 against a rational
    (Fraction(1, 5), [Fraction(4, 5), Surd.sqrt_of(Fraction(48, 125))]),
    # alpha = 1: abar rho^n = G^n, also over the radicand 20
    (Fraction(1), [Fraction(1), G, G * G]),
    (Fraction(1), [Fraction(1), GOLDEN_20]),
    # alpha = 1/2: abar rho = (sqrt(2) - 1)/2
    (Fraction(1, 2), [Fraction(1, 2), Surd(-1, 1, 2, 2)]),
], ids=["rational_bound", "golden", "golden_over_20", "silver"])
def test_decay_check_beta_on_the_bound(alpha, betas):
    # beta_n^k equal to abar^k rho^(kn) passes (<=); any excess fails
    exp = alpha_expand(Fraction(1, 3), alpha, 5)
    exp.q_seq = [1] + [10 ** 6] * len(betas)
    exp.betas = betas
    assert decay_check(exp) and oracle_decay_check(exp)
    exp.betas = betas[:-1] + [betas[-1] + Fraction(1, 10 ** 30)]
    assert not decay_check(exp) and not oracle_decay_check(exp)


@pytest.mark.parametrize("alpha, q", [(Fraction(1, 5), Fraction(25, 24)),
                                      (Fraction(1), Fraction(1, 2))])
def test_decay_check_q_on_the_bound(alpha, q):
    # 1/q_1^k equal to (1 + alpha)^k abar^k fails (the bound is strict).
    # No integer q meets it: its numerator keeps (s + r)^k, so a rational
    # q stands in.
    exp = alpha_expand(Fraction(1, 3), alpha, 5)
    exp.betas = exp.betas[:1]
    exp.q_seq = [1, q]
    assert not decay_check(exp) and not oracle_decay_check(exp)
    exp.q_seq = [1, q + Fraction(1, 10 ** 30)]
    assert decay_check(exp) and oracle_decay_check(exp)


# -- the orbit kernel against the exact step chains -----------------------

KERNEL_ALPHAS = (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1))
KERNEL_STEPS = 30


@st.composite
def kernel_inputs(draw):
    """(alpha, x, exact x): boundary rationals, surds and their enclosures."""
    alpha = draw(st.sampled_from(KERNEL_ALPHAS))
    n = draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(
        ("n+alpha", "n+1-alpha", "integer", "surd", "adaptive")))
    if kind in ("surd", "adaptive"):
        x = n + draw(st.sampled_from(SURDS + MIXED_SURDS + [GOLDEN_20]))
        return alpha, (AdaptiveReal.from_exact(x) if kind == "adaptive"
                       else x), x
    base = {"n+alpha": n + alpha, "n+1-alpha": n + 1 - alpha,
            "integer": Fraction(n)}[kind]
    x = base + draw(st.sampled_from((0, FIGURE_NUDGE, -FIGURE_NUDGE)))
    return alpha, x, x


def unroll(records):
    """The kernel's steps (num, den, a, eps): a record (num, den, a, eps, k)
    is k steps, and along a run of 2's c = den - num stays fixed; a record
    with den 0 holds the k certified doubles of a run, each over 1."""
    for num, den, a, eps, k in records:
        if not den:
            yield from ((f, 1, a, eps) for f in num)
            continue
        c = den - num
        for j in range(k):
            yield num - j * c, den - j * c, a, eps


def step_chain(x, alpha, steps):
    """(x_n, a_{n+1}, eps_{n+1}) of the exact chain the kernel replaces.

    alpha = 0 is the orbit semi_brjuno walks: minus_step from x - floor(x)
    (integers map to 1) until the remainder 1, every sign -1.
    """
    out = []
    if alpha == 0:
        cur = _reduce_mod1(x)
        while len(out) < steps and cur != 1:
            b, nxt = minus_step(cur)
            out.append((cur, b, -1))
            cur = nxt
        return out
    _n0, cur = alpha_reduce(x, alpha)
    while len(out) < steps and sign_val(cur) != 0:
        digit, nxt = alpha_step(cur, alpha)
        out.append((cur, digit.a, digit.eps))
        cur = nxt
    return out


@given(inp=kernel_inputs())
@settings(max_examples=200, deadline=None)
@example(inp=(Fraction(0), Fraction(3) - FIGURE_NUDGE,
              Fraction(3) - FIGURE_NUDGE))
@example(inp=(Fraction(1, 5), Fraction(-2, 5), Fraction(-2, 5)))
# (2 + sqrt(3))/4 starts on Q_1 = -1, where the Q_1 < 0 floor needs its + 1
@example(inp=(Fraction(0), Q1_NEGATIVE[2], Q1_NEGATIVE[2]))
# by-excess runs of 2's: one that ends exactly at x = 1/2 (num = den - num),
# x = 1/2 itself, which starts none, one that the step budget cuts, and the
# run of sqrt(999999)/1000 on both ends of its enclosures
@example(inp=(Fraction(0), Fraction(5, 6), Fraction(5, 6)))
@example(inp=(Fraction(0), Fraction(-1, 2), Fraction(-1, 2)))
@example(inp=(Fraction(0), Fraction(99, 100), Fraction(99, 100)))
@example(inp=(Fraction(0), AdaptiveReal.from_exact(NEAR_ONE), NEAR_ONE))
# the (P, Q, D) walk of a radicand that is not square-free
@example(inp=(Fraction(1, 2), GOLDEN_20, GOLDEN_20))
@example(inp=(Fraction(0), GOLDEN_20, GOLDEN_20))
def test_kernel_matches_step_chain(inp):
    alpha, x, exact_x = inp
    # B0 seeds the by-excess orbit with x - floor(x), the alpha = 1 seed
    _n0, _eps0, m = _alpha_seed(x, alpha or Fraction(1))
    records = list(islice(_orbit(x, alpha, m), KERNEL_STEPS))
    got = list(islice(unroll(records), KERNEL_STEPS))
    want = step_chain(exact_x, alpha, KERNEL_STEPS)
    if alpha == 0 and isinstance(x, (int, Fraction)):
        # a rational run of 2's is one record, so no 2 follows a 2
        assert all(r[2] != 2 or s[2] != 2
                   for r, s in zip(records, records[1:]))
    assert [(a, eps) for _num, _den, a, eps in got] == \
        [(a, eps) for _xn, a, eps in want]
    for (num, den, _a, _eps), (xn, _b, _e) in zip(got, want):
        assert (num / den).hex() == to_float(xn).hex()
        if isinstance(x, (int, Fraction)):
            assert Fraction(num, den) == xn


# A surd walk replays its period from the first repeated (P, Q) state.
# These repeat late: by excess, (-3 + 2 sqrt(10))/4 has pre-period 1 and
# period 73; sqrt(919) - 30 has period 60 at alpha = 1 and 40 at
# alpha = 1/2, and P alone repeats before (P, Q) on each of them.
# (1 + sqrt(10^29 + 319))/2 repeats no state within the budget.  160 steps
# cover the pre-period and two periods.
REPLAY_STEPS = 160
SQRT919 = Surd(-30, 1, 1, 919)
REPLAYED = [(Fraction(0), Surd(-3, 2, 4, 10)), (Fraction(1), SQRT919),
            (Fraction(1, 2), SQRT919),
            (Fraction(1, 2), Surd(1, 1, 2, 10 ** 29 + 319))]


@pytest.mark.parametrize("alpha, x", REPLAYED, ids=str)
def test_replayed_orbit_matches_step_chain(alpha, x):
    _n0, _eps0, m = _alpha_seed(x, alpha or Fraction(1))
    got = list(islice(unroll(_orbit(x, alpha, m)), REPLAY_STEPS))
    want = step_chain(x, alpha, REPLAY_STEPS)
    assert len(want) == REPLAY_STEPS
    assert [(a, eps) for _num, _den, a, eps in got] == \
        [(a, eps) for _xn, a, eps in want]
    assert [(num / den).hex() for num, den, _a, _eps in got] == \
        [oracle_float(xn).hex() for xn, _a, _eps in want]
    exp = alpha_expand(x, alpha, REPLAY_STEPS)
    assert repr((exp.integer_part, exp.eps0,
                 [(d.a, d.eps) for d in exp.digits], exp.remainders,
                 exp.betas, exp.p_seq, exp.q_seq, exp.terminated)) == \
        repr(oracle_alpha_expand(x, alpha, REPLAY_STEPS))
    mexp = minus_expand(x, REPLAY_STEPS)
    assert repr((mexp.x0, mexp.digits, mexp.remainders, mexp.pstar,
                 mexp.qstar, mexp.betastars, mexp.reached_one)) == \
        repr(oracle_minus_expand(x, REPLAY_STEPS))


# by-excess orbits with long runs of 2's.  From a 16-bit start the
# lockstep restarts at step 0 up to 64 bits; later restarts come where the
# doubles of the two ends part, some of them inside a run, so m_n is solved
# from mid-run states (at 128 to 8192 bits on these surds)
LONG_RUNS = [NEAR_ONE, Surd(0, 1, 10, 99), Surd(-3, 2, 4, 10),
             Surd(1, 1, 1000, 998004)]
LONG_RUN_STEPS = 3000


def test_adaptive_restarts_inside_runs():
    inside = 0
    for s in LONG_RUNS:
        x = AdaptiveReal.from_exact(s)
        got, restarts = [], []

        def counted(bits, gen=x.generator):
            # the steps taken when the lockstep asks for a new enclosure
            restarts.append(len(got))
            return gen(bits)

        x.generator = counted
        with exact.precision(bits=16):
            _n0, _eps0, m = _alpha_seed(x, Fraction(1))
            for step in islice(unroll(_orbit(x, Fraction(0), m)),
                               LONG_RUN_STEPS):
                got.append(step)
        want = list(islice(unroll(_orbit(s, Fraction(0), m)),
                           LONG_RUN_STEPS))
        assert len(got) == len(want) == LONG_RUN_STEPS
        assert [(a, eps, (num / den).hex()) for num, den, a, eps in got] == \
            [(a, eps, (num / den).hex()) for num, den, a, eps in want]
        inside += sum(1 for n in restarts
                      if 0 < n < len(got) and got[n - 1][2] == got[n][2] == 2)
    assert inside >= 2


TINY = Fraction(1, 2 ** 500)


@pytest.mark.parametrize("alpha, x, generator, steps", [
    # hi = 1/3 while the bits are below 500: its orbit ends after the first
    # step, which both ends certify, so the zip stops on a certified step
    (Fraction(1), Fraction(1, 3) - TINY, lambda x, bits: (
        x - Fraction(1, 2 ** bits), min(x + Fraction(1, 2 ** bits),
                                        Fraction(1, 3))), 2),
    # the ends straddle 2/3, so x_1 straddles 1/2: the run of 2's of hi is
    # one step longer than lo's, and the lockstep stops where lo's ends
    (Fraction(0), Fraction(2, 3) + TINY, lambda x, bits: (
        x - Fraction(1, 2 ** bits), x + Fraction(1, 2 ** bits)), 3),
], ids=["end_terminates", "runs_differ"])
def test_adaptive_restart_after_a_certified_step(alpha, x, generator, steps):
    # the loop exits on a certified step, so the restart steps both ends
    # once more before it solves m_n; else step 0 would come again
    adaptive = AdaptiveReal(lambda bits: generator(x, bits))
    m = (1, 0, 0, 1)
    with exact.precision(bits=64):
        got = list(islice(unroll(_orbit(adaptive, alpha, m)), steps))
    want = list(islice(unroll(_orbit(x, alpha, m)), steps))
    assert [(a, eps, (num / den).hex()) for num, den, a, eps in got] == \
        [(a, eps, (num / den).hex()) for num, den, a, eps in want]


EXPANSION_BUDGETS = (0, 1, 5, 120)


def oracle_alpha_expand(x, alpha, max_digits):
    """alpha_expand's fields from the alpha_step chain: digits up to the
    budget or a remainder 0, p_n = a_n p_{n-1} + eps_{n-1} p_{n-2}."""
    n0, eps0, _m = _alpha_seed(x, alpha)
    cur = eps0 * (x - n0)
    digits, remainders, betas = [], [cur], [cur]
    while len(digits) < max_digits and sign_val(cur) != 0:
        digit, cur = alpha_step(cur, alpha)
        digits.append((digit.a, digit.eps))
        remainders.append(cur)
        betas.append(cur * betas[-1])
    p_seq, q_seq = [0], [1]
    pm1, qm1, eps_prev = 1, 0, eps0
    for a, eps in digits:
        p_seq.append(a * p_seq[-1] + eps_prev * pm1)
        q_seq.append(a * q_seq[-1] + eps_prev * qm1)
        pm1, qm1, eps_prev = p_seq[-2], q_seq[-2], eps
    return (n0, eps0, digits, remainders, betas, p_seq, q_seq,
            sign_val(cur) == 0)


def oracle_minus_expand(x, max_digits):
    """minus_expand's fields from the minus_step chain: digits up to the
    budget or the remainder 1, p*_n = b_n p*_{n-1} - p*_{n-2}."""
    cur = x0 = _reduce_mod1(x)
    digits, remainders, betastars = [], [cur], [cur]
    while len(digits) < max_digits and cur != 1:
        b, cur = minus_step(cur)
        digits.append(b)
        remainders.append(cur)
        betastars.append(cur * betastars[-1])
    pstar, qstar = [0], [1]
    pm1, qm1 = -1, 0
    for b in digits:
        pstar.append(b * pstar[-1] - pm1)
        qstar.append(b * qstar[-1] - qm1)
        pm1, qm1 = pstar[-2], qstar[-2]
    return x0, digits, remainders, pstar, qstar, betastars, cur == 1


expansion_inputs = st.one_of(
    kernel_inputs().map(lambda inp: (inp[0], inp[2])),
    st.tuples(st.sampled_from(KERNEL_ALPHAS), st.just(DEEP)))


@given(inp=expansion_inputs, max_digits=st.sampled_from(EXPANSION_BUDGETS))
@settings(max_examples=200, deadline=None)
@example(inp=(Fraction(0), Fraction(3)), max_digits=5)
@example(inp=(Fraction(0), DEEP), max_digits=120)
@example(inp=(Fraction(1, 2), Fraction(5, 2)), max_digits=1)
@example(inp=(Fraction(0), Q1_NEGATIVE[0]), max_digits=5)
@example(inp=(Fraction(1, 5), GOLDEN_20), max_digits=120)
@example(inp=(Fraction(0), GOLDEN_20 + 2), max_digits=120)
# budgets that cut DEEP's run of 2's before its last 2, right after it,
# and at the end of the orbit
@example(inp=(Fraction(0), DEEP), max_digits=4997)
@example(inp=(Fraction(0), DEEP), max_digits=4998)
@example(inp=(Fraction(0), DEEP), max_digits=4999)
@example(inp=(Fraction(0), 1 - FIGURE_NUDGE), max_digits=7)
@example(inp=(Fraction(0), 1 - FIGURE_NUDGE), max_digits=120)
def test_expansions_match_step_chain(inp, max_digits):
    # the expansions read the kernel; the public steps must agree,
    # remainders and betas compared exactly
    alpha, x = inp
    exp = alpha_expand(x, alpha, max_digits)
    assert (exp.integer_part, exp.eps0, [(d.a, d.eps) for d in exp.digits],
            exp.remainders, exp.betas, exp.p_seq, exp.q_seq,
            exp.terminated) == oracle_alpha_expand(x, alpha, max_digits)
    m = minus_expand(x, max_digits)
    assert (m.x0, m.digits, m.remainders, m.pstar, m.qstar, m.betastars,
            m.reached_one) == oracle_minus_expand(x, max_digits)


@pytest.mark.parametrize("x", [Fraction(355, 1133), DEEP], ids=str)
def test_rational_expansions_read_the_kernel(x, monkeypatch):
    # a rational expansion reads the kernel's integer states, so it must
    # not call the Fraction primitives of the public step
    budgets = (100, 6000)
    alphas = (Fraction(0), Fraction(1, 2), Fraction(1))
    want = [oracle_alpha_expand(x, alpha, n) for alpha in alphas
            for n in budgets] + [oracle_minus_expand(x, n) for n in budgets]

    def refuse(*args):
        raise AssertionError("a rational expansion stepped a Fraction")

    monkeypatch.setattr("alphacf.alpha.recip", refuse)
    monkeypatch.setattr("alphacf.alpha.floor_shift", refuse)
    got = []
    for alpha in alphas:
        for n in budgets:
            exp = alpha_expand(x, alpha, n)
            got.append((exp.integer_part, exp.eps0,
                        [(d.a, d.eps) for d in exp.digits], exp.remainders,
                        exp.betas, exp.p_seq, exp.q_seq, exp.terminated))
    for n in budgets:
        m = minus_expand(x, n)
        got.append((m.x0, m.digits, m.remainders, m.pstar, m.qstar,
                    m.betastars, m.reached_one))
    assert got == want


# -- the certified orbit across carriers ----------------------------------

def _sums(x):
    """Every sum over the orbit of x, as comparable values."""
    out = [fingerprint(semi_brjuno(x, 10 ** 4, with_q_series=True)),
           log_denominator_sum(x, 200), _logq_vs_loga(x, 200)]
    for alpha in ALPHAS:
        for u in WEIGHTS.values():
            out.append(fingerprint(brjuno_sum(x, alpha, u, 200)))
            out.append(q_series(x, alpha, u, 200))
    return out


def _expansions(x):
    """Digits, signs, convergents and end state of both expansions."""
    m = minus_expand(x, 60)
    out = [(m.digits, m.pstar, m.qstar, m.reached_one)]
    for alpha in (Fraction(0),) + ALPHAS:
        exp = alpha_expand(x, alpha, 60)
        out.append(([(d.a, d.eps) for d in exp.digits], exp.integer_part,
                    exp.eps0, exp.p_seq, exp.q_seq, exp.terminated))
    return out


@pytest.mark.parametrize(
    "x", SURDS + Q1_NEGATIVE + LONG_RUNS + [Fraction(13, 31), Fraction(4)],
    ids=str)
def test_adaptive_matches_exact(x):
    # a surd walks its exact states and an adaptive value the certified
    # enclosure orbit; both read correctly rounded doubles, so every float
    # agrees bit for bit.  On LONG_RUNS the adaptive B0 reads run records
    # of certified doubles, the surd's one step at a time.  A point
    # enclosure follows the rational orbit
    # digit for digit; its B0 terms are -log(x_n) where the rational path
    # takes log(den) - log(num), so they may differ in the last bit
    adaptive = AdaptiveReal.from_exact(x)
    assert _expansions(adaptive) == _expansions(x)
    assert agree(_sums(adaptive), _sums(x),
                 1e-15 if isinstance(x, Fraction) else 0.0)


@st.composite
def surd_args(draw):
    """(a, b, c, d) of a surd (a + b sqrt(d))/c, b of either sign, d any
    non-square up to 10^30.  A third of the draws take d = k^2 + j and
    a = -b k, so that a + b sqrt(d), about b j/(2k), cancels far below 1
    and a 64-bit root leaves its double uncertain; a third take d = k^2 f,
    which is not square-free."""
    b = draw(st.integers(-1000, 1000).filter(bool))
    c = draw(st.integers(1, 10 ** 6))
    kind = draw(st.sampled_from(("cancel", "any", "k^2 f")))
    if kind == "cancel":
        k = draw(st.integers(1, 10 ** 15))
        d = k * k + draw(st.sampled_from((-2, -1, 1, 2)))
        a = -b * k
    elif kind == "any":
        d = draw(st.integers(2, 10 ** 30))
        a = draw(st.integers(-10 ** 15, 10 ** 15))
    else:
        d = draw(st.integers(2, 10 ** 6)) ** 2 * draw(st.integers(2, 10 ** 18))
        a = draw(st.integers(-10 ** 15, 10 ** 15))
    assume(d >= 2 and math.isqrt(d) ** 2 != d)
    return a, b, c, d


@given(args=surd_args())
@settings(max_examples=200, deadline=None)
@example(args=(-999999, 1, 1, 999998000002))
@example(args=(2999997, -3, 10 ** 6, 999998000002))
@example(args=(2, -1, 4, 2))
def test_surd_float_matches_enclosure(args):
    # float(Surd), and _surd_double in the beta form c/(a + b sqrt(d)),
    # whose denominator has either sign
    a, b, c, d = args
    s = Surd(*args)
    want = exact._nearest_float(AdaptiveReal.from_exact(s))
    assert float(s).hex() == want.hex()
    want = exact._nearest_float(AdaptiveReal.from_exact(c / Surd(a, b, 1, d)))
    assert exact._surd_double(c, 0, a, b, d).hex() == want.hex()


def test_adaptive_by_excess_fixed_point():
    # a point enclosure at alpha = 0 reaches the fixed point 1 and, like
    # the exact chain, repeats the digit 2 with sign -1 up to the budget
    for x in (Fraction(7, 2), AdaptiveReal.from_exact(Fraction(7, 2))):
        exp = alpha_expand(x, 0, 5)
        assert [(d.a, d.eps) for d in exp.digits] == \
            [(3, -1)] + [(2, -1)] * 4
        assert exp.terminated is False


def encloses(adaptive, value) -> bool:
    lo, hi = exact.enclosure(adaptive, 200)
    return lo <= value <= hi


@pytest.mark.parametrize("x", SURDS[:5] + [Fraction(5, 7), Fraction(3, 4)],
                         ids=str)
def test_adaptive_remainders_and_betas(x):
    # remainders and betas are Moebius images of x that enclose the exact
    # values, and so are the single steps; a rational's point enclosure
    # ends its orbit, with the exact ended entry and, at alpha = 0, the pad
    adaptive = AdaptiveReal.from_exact(x)
    pairs = [[(alpha_expand(y, alpha, 40), "betas") for y in (x, adaptive)]
             for alpha in (Fraction(1, 2), Fraction(0))]
    pairs.append([(minus_expand(y, 40), "betastars") for y in (x, adaptive)])
    for (exact_exp, key), (adaptive_exp, _key) in pairs:
        for name in ("remainders", key):
            want = getattr(exact_exp, name)
            got = getattr(adaptive_exp, name)
            assert len(got) == len(want)
            assert all(encloses(g, w) for g, w in zip(got, want))
    for step in (lambda y: alpha_step(y, 1), minus_step):
        (digit, nxt), (a_digit, a_nxt) = step(x), step(adaptive)
        assert a_digit == digit and encloses(a_nxt, nxt)


def _icbrt(n: int) -> int:
    x = 1 << -(-n.bit_length() // 3)   # above the root: Newton descends
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def cube_root(n: int) -> AdaptiveReal:
    def gen(bits):
        k = _icbrt(n << 3 * bits)
        return Fraction(k, 1 << bits), Fraction(k + 1, 1 << bits)
    return AdaptiveReal(gen)


def test_semi_brjuno_flags_do_not_change_the_sum():
    # 9988 of the first 10^4 by-excess digits of the cube root of 122 are
    # 2's; the ledger and the q*-recurrence run only on request and change
    # no other field
    x = cube_root(122)
    runs = {(keep, with_q): semi_brjuno(x, 10 ** 4, keep, with_q)
            for keep in (False, True) for with_q in (False, True)}
    want = runs[True, True]
    for (keep, with_q), res in runs.items():
        assert agree((res.value, res.tail_estimate, res.converged,
                      res.istar_sum),
                     (want.value, want.tail_estimate, want.converged,
                      want.istar_sum))
        assert agree(res.terms, want.terms if keep else [])
        assert agree(res.companion_q_series,
                     want.companion_q_series if with_q else None)


def test_deep_cube_root_orbit():
    # the by-excess orbit of the cube root of 4 used to outgrow the nested
    # enclosure closures (RecursionError); certified values do not depend
    # on the starting precision
    results = []
    for bits in (64, 512):
        with exact.precision(bits=bits):
            results.append(fingerprint(semi_brjuno(cube_root(4), 10 ** 4,
                                                   with_q_series=True)))
    assert results[0][4]  # converged
    assert agree(results[0], results[1])


# by excess, the cube roots of 122 and 213 walk short runs of 2's, then from
# steps 243 and 176 runs of 13454 and 14057 steps.  The budgets cut runs
# part-way.  From 64 bits the lockstep restarts at steps 26 and 157 (35 and
# 181, inside a run) and from 512 bits at none, so the run records end at
# different steps
CUBE_BUDGETS = (63, 64, 65, 129, 10 ** 4)


@pytest.mark.parametrize("n", [122, 213])
def test_cube_root_run_records_match_oracle(n):
    results = []
    for bits in (64, 512):
        with exact.precision(bits=bits):
            results.append([fingerprint(semi_brjuno(cube_root(n), budget,
                                                    with_q_series=True))
                            for budget in CUBE_BUDGETS])
    assert agree(results[0], results[1])
    assert agree(results[0], [fingerprint(oracle_semi_brjuno(
        cube_root(n), budget, with_q_series=True)) for budget in CUBE_BUDGETS])


def test_cube_root_run_records_are_bounded():
    # a certified run is a list of doubles over den 0, at most 64 a record
    x = cube_root(122)
    _n0, _eps0, m = _alpha_seed(x, Fraction(1))
    ks = []
    for num, den, a, eps, k in _orbit(x, Fraction(0), m):
        assert 1 <= k <= 64 and (den or (len(num), a, eps) == (k, 2, -1))
        ks.append(k)
        if sum(ks) > 10 ** 4:
            break
    assert ks.count(64) > 100


# -- surd sums against a step chain that keeps no record -------------------
#
# brjuno_sum, q_series and semi_brjuno read a Surd's orbit off the record of
# its distinct (P, Q, D) states and replay its period.  The chain below
# steps the exact remainders with alpha_step (minus_step by excess) for the
# whole budget and certifies each double by enclosures, so it shares
# neither the record, nor its replay, nor the integer-rounded double.  The
# budgets end just before and at the first repeat, i + L - 1 and i + L.

PERIOD_ALPHAS = ALPHAS + (Fraction(1, 100),)
PERIOD_STEPS = 400


def benchmark_pool():
    """(a + b sqrt(d))/c in (0, 1) for d in 2..13 square-free, c in 1..4
    and b in (1, -1, 2), as the benchmark builds its surd pool."""
    out = set()
    for d in (2, 3, 5, 6, 7, 10, 11, 13):
        for c in (1, 2, 3, 4):
            for b in (1, -1, 2):
                reach = abs(b) * (math.isqrt(d) + 1) + c
                out.update(x for x in (Surd(a, b, c, d)
                                       for a in range(-reach, reach + 1))
                           if 0 < x < 1)
    return sorted(out, key=lambda x: (x.d, x.c, x.b, x.a))


PERIOD_SURDS = list(dict.fromkeys(SURDS + benchmark_pool()))


def chain_without_record(x, alpha, steps):
    """(doubles, digits, budgets): the certified double of x_0 .. x_steps
    and the (a, eps) after each, from the exact step chain, and the budgets
    0, 1, i + L - 1, i + L and steps, with i + L the first index whose
    remainder came before (left out when none does within the chain)."""
    chain = step_chain(x, alpha, steps + 1)
    seen, budgets = set(), {0, 1, steps}
    for n, (xn, _a, _eps) in enumerate(chain):
        if xn in seen:
            budgets.update((n - 1, n))
            break
        seen.add(xn)
    return ([oracle_float(xn) for xn, _a, _eps in chain],
            [(a, eps) for _xn, a, eps in chain], sorted(budgets))


def chain_brjuno_sum(doubles, digits, alpha, u, n_max):
    """brjuno_sum with its terms and companion q-series, term by term."""
    value, beta, qs, q_prev, q, eps_prev = 0.0, 1.0, 0.0, 0, 1, 1
    terms, weights = [], []
    for n in range(n_max + 1):
        xf, (a, eps) = doubles[n], digits[n]
        weights.append(u.eval(xf))
        term = beta * weights[-1]
        value += term
        terms.append((n, beta, xf, term))
        qs += u.eval(1.0 / a) * _inv(q)
        q_prev, q, eps_prev = q, a * q + eps_prev * q_prev, eps
        beta *= xf
    rho = to_float(rho_alpha(alpha))
    tail = (float(alpha_bar(alpha)) * rho ** n_max / (1.0 - rho)
            * max(max(weights[-5:]), u.M1))
    return BrjunoResult(value, n_max, terms, tail,
                        term < 1e-12 and tail < 1e-6, qs)


def chain_semi_brjuno(doubles, digits, n_max):
    """semi_brjuno of a Surd with its terms and companion q*-series, cut
    where beta* falls below 1e-22."""
    value = istar = qs = 0.0
    beta, q_prev, q, terms = 1.0, 0, 1, []
    for n in range(n_max + 1):
        xf, b = doubles[n], digits[n][0]
        term = beta * -math.log(xf)
        value += term
        if b == 2:
            istar += term
        else:
            qs += math.log(b - 1) * _inv(q)
        terms.append((n, beta, xf, term))
        beta *= xf
        q_prev, q = q, b * q - q_prev
        if beta < 1e-22:
            break
    return BrjunoResult(value, n_max, terms, 2.0 * beta, 2.0 * beta < 1e-12,
                        qs, istar)


def hex_fields(res, terms=True):
    def h(v):
        return None if v is None else v.hex()
    return (h(res.value), h(res.tail_estimate), res.converged,
            h(res.companion_q_series), h(res.istar_sum),
            [tuple(map(h, t[1:])) for t in res.terms] if terms else None)


@pytest.mark.parametrize("alpha", PERIOD_ALPHAS, ids=str)
def test_surd_sums_match_a_chain_without_record(alpha):
    for x in PERIOD_SURDS:
        doubles, digits, budgets = chain_without_record(x, alpha,
                                                        PERIOD_STEPS)
        for n in budgets:
            for u in WEIGHTS.values():
                want = chain_brjuno_sum(doubles, digits, alpha, u, n)
                got = brjuno_sum(x, alpha, u, n, with_q_series=True)
                assert hex_fields(got) == hex_fields(want), (x, n, u.name)
                got = brjuno_sum(x, alpha, u, n, keep_terms=False)
                assert hex_fields(got, False)[:3] == \
                    hex_fields(want, False)[:3], (x, n, u.name)
                assert q_series(x, alpha, u, n).hex() == \
                    want.companion_q_series.hex(), (x, n, u.name)


def test_surd_semi_brjuno_matches_a_chain_without_record():
    for x in PERIOD_SURDS:
        doubles, digits, budgets = chain_without_record(x, Fraction(0),
                                                        PERIOD_STEPS)
        for n in budgets:
            want = chain_semi_brjuno(doubles, digits, n)
            got = semi_brjuno(x, n, with_q_series=True)
            assert hex_fields(got) == hex_fields(want), (x, n)
            got = semi_brjuno(x, n, keep_terms=False)
            assert hex_fields(got, False)[:3] + hex_fields(got)[4:5] == \
                hex_fields(want, False)[:3] + hex_fields(want)[4:5], (x, n)


# -- the exits of a surd sum -----------------------------------------------
#
# Without a ledger brjuno_sum stops reading a Surd's walk at one of two
# exits: once beta_prev, 1/q (or there is no q-series) and rho**n_max are
# all 0.0; or, once the period has closed, at the absorption step n_a, where
# beta_prev W and Wq/q_n are absorbed (below half an ulp of the value and
# of the q-series, or 0.0, and beta_prev W below 1e-12; W and Wq are the
# largest u(x_n) and u(1/a_{n+1}) over the period).  The full walk below
# reads every step of the kernel's records, with no exit, at the budgets
# just before, at and just after each of these steps: the first n with
# rho**n = 0.0, the first step whose float beta_prev is 0.0 and n_a.  The
# period comes from the exact alpha_step chain, not from the walk.

def period_of(x, alpha):
    """(i, n_r): x_{n_r} = x_i is the first exact remainder that came
    before, on the alpha_step chain."""
    _n0, cur = alpha_reduce(x, alpha)
    seen = {}
    for n in count():
        if cur in seen:
            return seen[cur], n
        seen[cur] = n
        _digit, cur = alpha_step(cur, alpha)


def exit_steps(x, alpha):
    """The first n with rho**n = 0.0 and the first step n whose float
    beta_prev is 0.0, if one comes before.  (Where every x_n exceeds 1/2,
    beta_prev stops at 2**-1074.)"""
    _n0, _eps0, m = _alpha_seed(x, alpha)
    rho, beta = to_float(rho_alpha(alpha)), 1.0
    firsts = [next(n for n in count() if not rho ** n)]
    for n, (xf, _one, _a, _eps, _k) in enumerate(
            islice(_orbit(x, alpha, m), firsts[0])):
        if not beta:
            firsts.append(n)
            break
        beta *= xf
    return firsts


def absorption_step(x, alpha, u, with_q, period):
    """n_a: the first step n >= n_r, for the period (i, n_r), at which
    beta_prev W and, with the q-series, Wq/q_n are absorbed."""
    _n0, _eps0, m = _alpha_seed(x, alpha)
    i, n_r = period
    records = list(islice(_orbit(x, alpha, m), n_r))
    W = max(u.eval(xf) for xf, _one, _a, _eps, _k in records[i:])
    Wq = max(u.eval(1.0 / a) for _xf, _one, a, _eps, _k in records[i:])
    value, beta, qs, q_prev, q, eps_prev = 0.0, 1.0, 0.0, 0, 1, 1
    for n, (xf, _one, a, eps, _k) in enumerate(_orbit(x, alpha, m)):
        bound, bq = beta * W, Wq * _inv(q)
        if n >= n_r and bound < 1e-12 and (
                not bound or bound < math.ulp(value) / 2) and (
                not with_q or not bq or bq < math.ulp(qs) / 2):
            return n
        value += beta * u.eval(xf)
        qs += u.eval(1.0 / a) * _inv(q)
        q_prev, q, eps_prev = q, a * q + eps_prev * q_prev, eps
        beta *= xf


def full_walk(x, alpha, budgets, weights=tuple(WEIGHTS.values())):
    """{u name: brjuno_sum's value, tail, converged and q-series at each
    budget} from every step of the kernel's records, for each weight.  Each
    q_n is checked not to fall below q_{n-1} and each digit after a minus
    sign to be >= 2, which keeps q_n from falling from then on; past
    1/q = 0.0 the q recurrence stops."""
    _n0, _eps0, m = _alpha_seed(x, alpha)
    rho, abar = to_float(rho_alpha(alpha)), float(alpha_bar(alpha))
    k = len(weights)
    values, qss, terms = [0.0] * k, [0.0] * k, [0.0] * k
    recent = deque(maxlen=5)   # the weights of the last five steps
    evals = {}   # the weights of a (double, digit) pair: u is pure
    fields = {u.name: [] for u in weights}
    q_prev, q, eps_prev = 0, 1, 1
    beta, last = 1.0, max(budgets)
    for n, (xf, _one, a, eps, _k) in enumerate(_orbit(x, alpha, m)):
        if (xf, a) not in evals:
            evals[xf, a] = [(u.eval(xf), u.eval(1.0 / a)) for u in weights]
        inv_q, ws = _inv(q), evals[xf, a]
        recent.append(ws)
        for j, (w, wq) in enumerate(ws):
            terms[j] = term = beta * w
            values[j] += term
            qss[j] += wq * inv_q
        assert eps_prev == 1 or a >= 2, (x, alpha, n)
        if inv_q:
            q_prev, q = q, a * q + eps_prev * q_prev
            assert q >= q_prev, (x, alpha, n)
        eps_prev = eps
        if n in budgets:
            for j, u in enumerate(weights):
                tail = (abar * rho ** n / (1.0 - rho)
                        * max(max(step[j][0] for step in recent), u.M1))
                fields[u.name].append((values[j].hex(), tail.hex(),
                                       terms[j] < 1e-12 and tail < 1e-6,
                                       qss[j].hex()))
        if n == last:
            return fields
        beta *= xf


def sum_fields(x, alpha, u, n, with_q):
    r = brjuno_sum(x, alpha, u, n, keep_terms=False, with_q_series=with_q)
    return (r.value.hex(), r.tail_estimate.hex(), r.converged,
            r.companion_q_series.hex() if with_q else None)


@pytest.mark.parametrize("alpha", PERIOD_ALPHAS, ids=str)
def test_surd_sum_exits_match_the_full_walk(alpha):
    for x in PERIOD_SURDS + LONG_RUNS:
        firsts, period = exit_steps(x, alpha), period_of(x, alpha)
        budgets = {
            (name, with_q): {n + d for d in (-1, 0, 1) for n in firsts + [
                absorption_step(x, alpha, u, with_q, period)]}
            for name, u in WEIGHTS.items() for with_q in (True, False)}
        # rho**n reaches 0.0 at n = 73,766 for alpha = 1/100; a full walk
        # that long costs 0.1 s, so there those budgets go on SURDS and
        # LONG_RUNS only
        if not (x in SURDS or x in LONG_RUNS):
            budgets = {k: {n for n in ns if n < 10 ** 4}
                       for k, ns in budgets.items()}
        every = sorted(set().union(*budgets.values()))
        want = full_walk(x, alpha, every)
        for (name, with_q), ns in budgets.items():
            walked = dict(zip(every, want[name]))
            assert [sum_fields(x, alpha, WEIGHTS[name], n, with_q)
                    for n in sorted(ns)] == [
                walked[n][:3] + (walked[n][3] if with_q else None,)
                for n in sorted(ns)], (x, name, with_q)


def test_golden_mean_gauss_sum_at_a_large_budget():
    # every digit is 1, so u(1/a) = 0 and the q-series stays 0.0, and every
    # x_n exceeds 1/2, so beta_prev never reaches 0.0: only the absorption
    # exit stops this walk, near n = 75 (28.8 s to n = 10**6 without it)
    log = WEIGHTS["log"]
    want = full_walk(G, Fraction(1), {10 ** 6}, (log,))["log"]
    assert [sum_fields(G, Fraction(1), log, 10 ** 6, True)] == want


def test_adaptive_sum_stops_where_beta_underflows():
    # beta_prev reaches 0.0 near n = 800; without the exit the lockstep
    # goes on to certify steps past the precision cap (NeedsPrecision)
    g, log, half = AdaptiveReal.from_exact(G), WEIGHTS["log"], Fraction(1, 2)
    got = [brjuno_sum(g, half, log, n, keep_terms=False, with_q_series=True)
           for n in (20000, 10 ** 5)]
    assert [(r.value.hex(), r.tail_estimate.hex(), r.converged,
             r.companion_q_series.hex()) for r in got] == \
        [sum_fields(G, half, log, 20000, True)] * 2


# A term exactly at a bound of the absorption test is not absorbed.  Every
# digit of TIE_X at alpha = 1 is 3, so x_n = x_0 and the terms are
# beta_prev W and Wq/q_n.  The weights lam * -log t below put one term
# exactly at half an ulp of a sum whose last bit is odd, where the tie
# rounds up and the term changes the sum; or exactly at 1e-12, below half
# an ulp, where a stop would report a last term that is not below 1e-12.

TIE_X = Surd(-3, 1, 2, 13)


def odd_half_ulp(v):
    return math.ulp(v) / 2 if int(math.frexp(v)[0] * 2 ** 53) & 1 else None


def tie_weight(guess, hit):
    """The weight lam * -log t, lam near guess(beta_prev, q_n, L, Lq) at
    some step n (L = -log x_n, Lq = log 3), whose walk on the orbit of
    TIE_X at alpha = 1 meets hit(value, qs, beta_prev W, Wq/q_n) at step
    n."""
    xf = oracle_float(TIE_X)
    beta, q_prev, q = 1.0, 0, 1
    for n in range(1, 80):
        beta, q_prev, q = beta * xf, q, 3 * q + q_prev
        lam = guess(beta, q, -math.log(xf), math.log(3))
        for _ in range(40):
            lam = math.nextafter(lam, 0)
        for _ in range(80):
            lam = math.nextafter(lam, math.inf)
            W, Wq = lam * -math.log(xf), lam * -math.log(1.0 / 3)
            value = qs = 0.0
            b, p_prev, p = 1.0, 0, 1
            for _ in range(n):
                value += b * W
                qs += Wq * _inv(p)
                b, p_prev, p = b * xf, p, 3 * p + p_prev
            if hit(value, qs, b * W, Wq * _inv(p)):
                return make_u(f"{lam!r} log", eval_fn=lambda t: lam * -math.log(t),
                              deriv_fn=lambda t: -lam / t)
    raise AssertionError("no weight meets the bound")


@pytest.mark.parametrize("with_q, guess, hit", [
    # value ~ 1.5 W at the tie
    (False, lambda beta, q, L, Lq: 2.0 ** -53 / beta / L,
     lambda v, qs, bound, bq: bound == odd_half_ulp(v)),
    # value ~ 2^15, so that 1e-12 < ulp(value) / 2
    (False, lambda beta, q, L, Lq: 1e-12 / beta / L,
     lambda v, qs, bound, bq: bound == 1e-12 < math.ulp(v) / 2),
    # the value's bound is absorbed and the q-series' at its tie
    (True, lambda beta, q, L, Lq: 2.0 ** -53 * q / Lq,
     lambda v, qs, bound, bq: bq == odd_half_ulp(qs)
     and bound < min(1e-12, math.ulp(v) / 2)),
], ids=["half_ulp", "1e-12", "q_half_ulp"])
def test_a_term_at_a_bound_is_not_absorbed(with_q, guess, hit):
    alpha, u = Fraction(1), tie_weight(guess, hit)
    firsts, period = exit_steps(TIE_X, alpha), period_of(TIE_X, alpha)
    n_a = absorption_step(TIE_X, alpha, u, with_q, period)
    budgets = sorted({n + d for d in (-1, 0, 1) for n in firsts + [n_a]})
    want = full_walk(TIE_X, alpha, budgets, (u,))[u.name]
    assert [sum_fields(TIE_X, alpha, u, n, with_q) for n in budgets] == \
        [w[:3] + (w[3] if with_q else None,) for w in want], u.name

# -- integer decisions of seeds, floors and enclosures ---------------------
#
# floor_shift, the seed's sign eps0, _surd_state and Surd.enclosure decide
# in integers what was once computed with Fraction and Surd arithmetic; the
# references below are that arithmetic.

SEED_ALPHAS = (Fraction(0), Fraction(1, 100), Fraction(1, 5), Fraction(3, 7),
               Fraction(1, 2), Fraction(1))
# MIXED_SURDS has b < 0, c > 1, x < 0 and x > 1; (7 + sqrt(5))/2 at 1/5 and
# (-9 - sqrt(2))/5 at 1/2 seed eps0 = -1, and the last two cancel far below
# 1 in a + b sqrt(d)
SEED_SURDS = MIXED_SURDS + [
    Surd(7, 1, 2, 5), Surd(-9, -1, 5, 2), Surd(1, 1, 2, 10 ** 29 + 319),
    Surd(-999999, 1, 1, 999998000002),
    Surd(2999997, -3, 10 ** 6, 999998000002)]


def surd_floor(y):
    """floor(y) of a Surd in the integers of its (a, b, c, d)."""
    r = math.isqrt(y.b * y.b * y.d)
    return (y.a + r if y.b > 0 else y.a - r - 1) // y.c


def surd_seed(x, alpha):
    """(n0, eps0, _surd_state) from Surd arithmetic: the Surds x + 1 - alpha,
    x - n0 and x_0 = eps0 x - eps0 n0."""
    n0 = surd_floor(x + (1 - alpha))
    eps0 = sign_val(x - n0) or 1
    x0 = eps0 * x - eps0 * n0
    sgn, k = (1 if x0.b > 0 else -1), abs(x0.b) * x0.c
    return n0, eps0, (sgn * x0.a * x0.c, sgn * x0.c * x0.c, k * k * x0.d, k,
                      x0.d)


def check_seed(x, alpha):
    n0, eps0, m = _alpha_seed(x, alpha)
    assert exact.floor_shift(x, alpha) == n0
    assert n0 <= x + (1 - alpha) < n0 + 1
    assert (n0, eps0, _surd_state(x, m)) == surd_seed(x, alpha), (x, alpha)
    return eps0


@pytest.mark.parametrize("alpha", SEED_ALPHAS, ids=str)
def test_surd_seed_matches_surd_arithmetic(alpha):
    signs = {check_seed(x, alpha) for x in SEED_SURDS + benchmark_pool()}
    assert signs == ({1} if alpha == 1 else {-1} if alpha == 0 else {-1, 1})


@given(args=surd_args(), alpha=st.sampled_from(SEED_ALPHAS))
@settings(max_examples=300, deadline=None)
def test_surd_seed_matches_surd_arithmetic_at_random(args, alpha):
    check_seed(Surd(*args), alpha)


def fraction_floor_shift(x, alpha):
    """floor(x + 1 - alpha) of an AdaptiveReal on its enclosures' ends, in
    Fraction arithmetic, climbing the same ladder."""
    for p in exact._ladder("floor not certified at %d bits"):
        lo, hi = x.enclosure(p)
        if math.floor(lo + 1 - alpha) == math.floor(hi + 1 - alpha):
            return math.floor(lo + 1 - alpha)


@given(n=st.integers(-5, 5), alpha=st.sampled_from(SEED_ALPHAS),
       k=st.one_of(st.none(), st.integers(1, 80)),
       side=st.sampled_from((-1, 1)), w=st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_adaptive_floor_shift_matches_fraction_arithmetic(n, alpha, k, side,
                                                          w):
    # x sits 2^-k off (or, for k None, on) n - 1 + alpha, where
    # floor(x + 1 - alpha) steps; the enclosures, of half-width
    # (w/3) 2^-bits, straddle it until the bits pass k
    v = n - 1 + alpha + (side * Fraction(1, 2 ** k) if k else 0)

    def adaptive(asked):
        return AdaptiveReal(lambda bits: asked.append(bits) or (
            v - Fraction(w, 3 << bits), v + Fraction(w, 3 << bits)))

    got, want = [], []
    for floor, asked in ((exact.floor_shift, got),
                         (fraction_floor_shift, want)):
        x = adaptive(asked)
        with exact.precision(bits=4, cap=256):
            try:
                asked.append(floor(x, alpha))
            except exact.NeedsPrecision:
                asked.append(None)
    assert got == want
    assert (got[-1] is None) == (k is None)


def fraction_enclosure(x, bits):
    """Surd.enclosure at bits in Fraction arithmetic: the ends a + b r over
    c for the ends r of sqrt(d)'s dyadic enclosure."""
    s = math.isqrt(x.d << (2 * bits))
    lo_rt, hi_rt = Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits)
    t_lo, t_hi = ((x.b * lo_rt, x.b * hi_rt) if x.b >= 0
                  else (x.b * hi_rt, x.b * lo_rt))
    return (x.a + t_lo) / x.c, (x.a + t_hi) / x.c


@given(args=surd_args(), bits=st.integers(1, 300))
@settings(max_examples=300, deadline=None)
@example(args=(-1, 1, 2, 5), bits=64)
@example(args=(1, 2, 1, 3), bits=7)   # |b| = 2c, no guard bit
@example(args=(1, 3, 1, 3), bits=7)   # |b| = 3c, one guard bit
@example(args=(5, -1000, 1, 2), bits=128)
def test_surd_enclosure_matches_fraction_arithmetic(args, bits):
    # the Fraction ends at bits + g for the fewest guard bits g that keep
    # the width within 2^(1-bits): none where |b| <= 2c
    x = Surd(*args)
    g = 0
    while (lambda lo, hi: hi - lo)(*fraction_enclosure(x, bits + g)) > \
            Fraction(2) ** (1 - bits):
        g += 1
    assert x.enclosure(bits) == fraction_enclosure(x, bits + g)
    assert g == 0 or abs(x.b) > 2 * x.c
