"""Differential tests: the integer-state rational paths of the sums against
the expansion-based reference they replaced.

The oracles below recompute each sum the way it was computed before the
integer-state orbits existed: ``brjuno_sum`` and ``q_series`` from
``alpha_expand``, ``semi_brjuno`` from ``minus_expand`` and ``_log_frac``.
Every float must agree bit for bit.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphacf.alpha import alpha_bar, alpha_expand, rho_alpha
from alphacf.brjuno import (BrjunoResult, _inv, _log_frac, _logq_vs_loga,
                            brjuno_sum, log_denominator_sum, make_u,
                            q_series, semi_brjuno)
from alphacf.byexcess import minus_expand
from alphacf.exact import is_exact, sign_val, to_float

ALPHAS = (Fraction(1), Fraction(1, 2), Fraction(1, 5), Fraction(3, 7),
          Fraction(9, 10))
WEIGHTS = {name: make_u(name) for name in ("log", "inv_sqrt")}
N_MAX = (0, 1, 5, 200)
NUDGE = Fraction(1, 10 ** 9)
DEEP = Fraction(4999, 5000)   # 4998 by-excess 2's before the orbit hits 1


# -- oracles ---------------------------------------------------------------

def oracle_brjuno_sum(x, alpha, u, n_max, keep_terms=True):
    alpha = Fraction(alpha)
    exp = alpha_expand(x, alpha, n_max)
    beta_prev = 1.0
    value = 0.0
    terms = []
    u_recent = []
    last_term = math.inf
    for n, xn in enumerate(exp.remainders):
        if is_exact(xn) and sign_val(xn) == 0:
            last_term = 0.0
            break
        xf = to_float(xn)
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
    if exp.terminated:
        tail = 0.0
    converged = exp.terminated or (last_term < 1e-12 and tail < 1e-6)
    return BrjunoResult(value, n_max, terms, tail, converged)


def oracle_q_series(x, alpha, u, n_max):
    exp = alpha_expand(x, Fraction(alpha), n_max + 1)
    total = 0.0
    for n, digit in enumerate(exp.digits):
        total += u.eval(1.0 / digit.a) * _inv(exp.q_seq[n])
    return total


def oracle_semi_brjuno(x, n_max, keep_terms=True, with_q_series=False):
    """Rational inputs only: the by-excess orbit read off minus_expand."""
    # the sum looks at x_0 .. x_{n_max} and the digit after each of them
    m = minus_expand(x, n_max + 1)
    value = qs = istar = 0.0
    beta = 1.0
    terms = []
    reached_one = False
    for n, xn in enumerate(m.remainders[:n_max + 1]):
        if xn == 1:
            reached_one = True
            break
        term = beta * _log_frac(xn.denominator, xn.numerator)
        value += term
        b = m.digits[n]
        if b == 2:
            istar += term
        else:
            qs += math.log(b - 1) * _inv(m.qstar[n])
        if keep_terms:
            terms.append((n, beta, float(xn), term))
        beta *= float(xn)
    tail = 0.0 if reached_one else 2.0 * beta
    return BrjunoResult(value, n_max, terms, tail,
                        reached_one or tail < 1e-12,
                        companion_q_series=qs if with_q_series else None,
                        istar_sum=istar)


def oracle_log_denominator_sum(x, n_max):
    exp = alpha_expand(x, 1, n_max)
    return sum(math.log(q) * _inv(q) for q in exp.q_seq[1:] if q > 1)


def oracle_logq_vs_loga(x, n_max):
    exp = alpha_expand(x, 1, n_max)
    s_q = s_a = 0.0
    for n, digit in enumerate(exp.digits):
        s_q += math.log(exp.q_seq[n + 1]) * _inv(exp.q_seq[n])
        s_a += math.log(digit.a) * _inv(exp.q_seq[n])
    return abs(s_q - s_a)


# -- comparison ------------------------------------------------------------

def _bits(v):
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, tuple):
        return tuple(_bits(t) for t in v)
    return v


def fingerprint(res: BrjunoResult):
    return (_bits(res.value), res.n_max, [_bits(t) for t in res.terms],
            _bits(res.tail_estimate), res.converged,
            _bits(res.companion_q_series), _bits(res.istar_sum))


# -- inputs ----------------------------------------------------------------

@st.composite
def alpha_inputs(draw):
    """(alpha, x): a random rational or one on a boundary of A_alpha."""
    alpha = draw(st.sampled_from(ALPHAS))
    n = draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(
        ("random", "n+alpha", "n+1-alpha", "integer", "int", "deep")))
    if kind == "random":
        return alpha, Fraction(draw(st.integers(-10 ** 7, 10 ** 7)),
                               draw(st.integers(1, 10 ** 6)))
    if kind == "int":
        return alpha, n
    base = {"n+alpha": n + alpha, "n+1-alpha": n + 1 - alpha,
            "integer": Fraction(n), "deep": DEEP}[kind]
    return alpha, base + draw(st.sampled_from((0, NUDGE, -NUDGE)))


rationals = st.one_of(
    st.builds(Fraction, st.integers(-10 ** 7, 10 ** 7),
              st.integers(1, 10 ** 6)),
    st.integers(-3, 3),
    st.builds(lambda n, k, d: n + Fraction(1, k) + d, st.integers(-3, 3),
              st.integers(1, 50), st.sampled_from((0, NUDGE, -NUDGE))),
    st.sampled_from((DEEP, 1 - DEEP, -DEEP)),
)


# -- properties ------------------------------------------------------------

@given(inp=alpha_inputs(), u_name=st.sampled_from(sorted(WEIGHTS)),
       n_max=st.sampled_from(N_MAX), keep_terms=st.booleans())
@settings(max_examples=300, deadline=None)
@example(inp=(Fraction(1), DEEP), u_name="log", n_max=200, keep_terms=True)
@example(inp=(Fraction(1, 2), Fraction(1, 2)), u_name="inv_sqrt", n_max=0,
         keep_terms=True)
def test_brjuno_sum_matches_oracle(inp, u_name, n_max, keep_terms):
    alpha, x = inp
    u = WEIGHTS[u_name]
    assert fingerprint(brjuno_sum(x, alpha, u, n_max, keep_terms)) == \
        fingerprint(oracle_brjuno_sum(x, alpha, u, n_max, keep_terms))


@given(inp=alpha_inputs(), u_name=st.sampled_from(sorted(WEIGHTS)),
       n_max=st.sampled_from(N_MAX))
@settings(max_examples=200, deadline=None)
def test_q_series_matches_oracle(inp, u_name, n_max):
    alpha, x = inp
    u = WEIGHTS[u_name]
    assert _bits(q_series(x, alpha, u, n_max)) == \
        _bits(oracle_q_series(x, alpha, u, n_max))


@given(x=rationals, n_max=st.sampled_from(N_MAX), keep_terms=st.booleans(),
       with_q=st.booleans())
@settings(max_examples=300, deadline=None)
@example(x=Fraction(1, 2), n_max=0, keep_terms=True, with_q=True)
@example(x=Fraction(1, 2), n_max=1, keep_terms=True, with_q=True)
@example(x=DEEP, n_max=10 ** 4, keep_terms=False, with_q=True)
def test_semi_brjuno_matches_oracle(x, n_max, keep_terms, with_q):
    assert fingerprint(semi_brjuno(x, n_max, keep_terms, with_q)) == \
        fingerprint(oracle_semi_brjuno(x, n_max, keep_terms, with_q))


@given(x=rationals, n_max=st.sampled_from(N_MAX))
@settings(max_examples=150, deadline=None)
def test_log_sums_match_oracle(x, n_max):
    assert _bits(log_denominator_sum(x, n_max)) == \
        _bits(oracle_log_denominator_sum(x, n_max))
    assert _bits(_logq_vs_loga(x, n_max)) == \
        _bits(oracle_logq_vs_loga(x, n_max))


def test_reached_one_only_within_budget():
    # 1/2 -> 1 after one by-excess step: a budget of 0 steps stops short
    short = semi_brjuno(Fraction(1, 2), 0)
    assert (short.converged, short.tail_estimate) == (False, 1.0)
    full = semi_brjuno(Fraction(1, 2), 1)
    assert (full.converged, full.tail_estimate) == (True, 0.0)
