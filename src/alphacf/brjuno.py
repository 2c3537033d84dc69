"""Generalized Brjuno sums and the by-excess (semi-Brjuno) variant.

``brjuno_sum`` evaluates B_{alpha,u}(x) = sum beta_{n-1} u(x_n) over the
alpha-continued fraction orbit of x, for a positive C^1 weight u singular
at 0.  ``semi_brjuno`` is the alpha=0, u=-log case, summed over the
by-excess orbit, where convergence is driven by the run structure instead
of a geometric decay.  Companion q-series, functional-equation residuals
and corpus-wide difference reports live here too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .alpha import alpha_bar, alpha_expand, alpha_step, rho_alpha
from .byexcess import minus_step
from .exact import (DomainError, RealValue, compare, floor_shift, is_exact,
                    sign_val, sub_int, to_float)


class ConditionViolation(ValueError):
    """Weight function fails the growth conditions at the origin."""


def _inv(q: int) -> float:
    # 1/q as a float; denominators past the double range underflow to 0.0
    if q.bit_length() > 1023:
        return 0.0
    return 1.0 / q


def _log_frac(num: int, den: int) -> float:
    return math.log(num) - math.log(den)


@dataclass
class SingularityU:
    """A positive C^1 weight on (0,1), singular at the origin.

    M1..M3 are suprema used by the truncation diagnostics: M1 of u on
    (delta/(1+delta), 1), M2 of x*u(x) on (0, delta), M3 of |x^2 u'(x)|
    on (0, delta).
    """

    name: str
    eval: Callable[[float], float]
    deriv: Callable[[float], float]
    delta: float = 0.1
    M1: float = field(default=0.0)
    M2: float = field(default=0.0)
    M3: float = field(default=0.0)


def _grid_sup(f: Callable[[float], float], lo: float, hi: float,
              points: int = 2000) -> float:
    eps = (hi - lo) * 1e-12
    best = -math.inf
    for i in range(points + 1):
        t = lo + (hi - lo) * i / points
        t = min(max(t, lo + eps), hi - eps)
        v = f(t)
        if v > best:
            best = v
    return best


def _check_conditions(u: Callable[[float], float],
                      du: Callable[[float], float], delta: float) -> None:
    scales = [delta * 2.0 ** (-k) for k in range(1, 51)]
    u_vals = [u(t) for t in scales]
    if u_vals[-1] < 10.0 or u_vals[-1] <= u_vals[0]:
        raise ConditionViolation("u does not diverge at the origin")
    for label, seq in (("x*u(x)", [t * u(t) for t in scales]),
                       ("x^2*u'(x)", [abs(t * t * du(t)) for t in scales])):
        if seq[-1] > 1e9 and seq[-1] > 4 * seq[len(seq) // 2]:
            raise ConditionViolation(f"{label} is unbounded near 0")


def make_u(name: str, sigma: Optional[float] = None, delta: float = 0.1,
           eval_fn: Optional[Callable[[float], float]] = None,
           deriv_fn: Optional[Callable[[float], float]] = None) -> SingularityU:
    """Build a weight: 'log', 'inv_sqrt', 'power' (with sigma > 1) or custom."""
    if name == "log":
        ev = lambda t: -math.log(t)
        dv = lambda t: -1.0 / t
    elif name == "inv_sqrt":
        ev = lambda t: t ** -0.5
        dv = lambda t: -0.5 * t ** -1.5
    elif name == "power":
        if sigma is None or sigma <= 1:
            raise ConditionViolation("power weight requires sigma > 1")
        ev = lambda t: t ** (-1.0 / sigma)
        dv = lambda t: -(1.0 / sigma) * t ** (-1.0 / sigma - 1.0)
    elif eval_fn is not None and deriv_fn is not None:
        ev, dv = eval_fn, deriv_fn
    else:
        raise ValueError(f"unknown weight {name!r} and no custom (eval, deriv)")
    _check_conditions(ev, dv, delta)
    out = SingularityU(name, ev, dv, delta)
    out.M1 = _grid_sup(ev, delta / (1 + delta), 1.0)
    out.M2 = _grid_sup(lambda t: t * ev(t), 0.0, delta)
    out.M3 = _grid_sup(lambda t: abs(t * t * dv(t)), 0.0, delta)
    return out


@dataclass
class BrjunoResult:
    value: float
    n_max: int
    terms: list  # (n, beta_prev, x_n, term)
    tail_estimate: float
    converged: bool
    companion_q_series: Optional[float] = None
    istar_sum: Optional[float] = None  # by-excess only: sum over the 2-digit indices


def _rational_orbit(x: Fraction, alpha: Fraction, max_digits: int):
    """The A_alpha orbit of a rational x on integer state.

    Returns (xs, digits, q_seq, terminated) with the values and errors of
    alpha_expand(x, alpha, max_digits): x_0 .. x_k as floats up to the
    first zero remainder, the digits a_1 .. a_D and q_0 .. q_D.
    """
    if max_digits < 0:
        raise ValueError("max_digits must be >= 0")
    if not 0 <= alpha <= 1:
        raise DomainError(f"alpha must be in [0,1], got {alpha}")
    r, s = alpha.numerator, alpha.denominator
    p, q = x.numerator, x.denominator
    n0 = (s * p + (s - r) * q) // (s * q)
    num, den = abs(p - n0 * q), q
    xs: list[float] = []
    digits: list[int] = []
    q_seq = [1]
    q_prev, eps_prev = 0, 1
    while num:
        xs.append(num / den)  # the same correctly rounded float(Fraction)
        if len(digits) == max_digits:
            return xs, digits, q_seq, False
        # step rule: num/den -> |den - a*num| / num with
        # a = floor(den/num + 1 - alpha); gcd(num, den) never changes
        a = (s * den + (s - r) * num) // (s * num)
        rem = den - a * num
        digits.append(a)
        q_cur = q_seq[-1]
        q_seq.append(a * q_cur + eps_prev * q_prev)
        q_prev = q_cur
        eps_prev = -1 if rem < 0 else 1  # +1 on the terminating step
        num, den = abs(rem), num
    return xs, digits, q_seq, True


def _orbit(x: RealValue, alpha, max_digits: int):
    """(xs, digits, q_seq, terminated) of x for any carrier.

    Rationals run on integer state; other carriers go through alpha_expand,
    with the exact zero that ends a terminating orbit left out of xs.
    """
    if isinstance(x, (int, Fraction)):
        return _rational_orbit(x, alpha, max_digits)
    exp = alpha_expand(x, alpha, max_digits)
    rems = exp.remainders
    if exp.terminated and is_exact(rems[-1]):
        rems = rems[:-1]
    return ([to_float(r) for r in rems], [d.a for d in exp.digits],
            exp.q_seq, exp.terminated)


def brjuno_sum(x: RealValue, alpha, u: SingularityU, n_max: int,
               keep_terms: bool = True) -> BrjunoResult:
    """Truncated B_{alpha,u}(x), alpha in (0, 1].

    The input is reduced by x0 = |x - floor(x+1-alpha)| first; rational
    orbits terminate and contribute only their finite terms.
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        raise DomainError("alpha = 0 has no (alpha,u)-sum here; "
                          "use semi_brjuno for the log weight")
    xs, _digits, _q_seq, terminated = _orbit(x, alpha, n_max)
    beta_prev = 1.0
    value = 0.0
    terms = []
    uvals = []
    last_term = math.inf
    for n, xf in enumerate(xs):
        uval = u.eval(xf)
        term = beta_prev * uval
        value += term
        last_term = term
        uvals.append(uval)
        if keep_terms:
            terms.append((n, beta_prev, xf, term))
        beta_prev *= xf
    if terminated:
        return BrjunoResult(value, n_max, terms, 0.0, True)
    rho = to_float(rho_alpha(alpha))
    abar = float(alpha_bar(alpha))
    scale = max(uvals[-5:], default=0.0)
    tail = abar * rho ** n_max / (1.0 - rho) * max(scale, u.M1)
    converged = last_term < 1e-12 and tail < 1e-6
    return BrjunoResult(value, n_max, terms, tail, converged)


def q_series(x: RealValue, alpha, u: SingularityU, n_max: int) -> float:
    """Companion series sum u(1/a_{n+1}) / q_n over the same expansion."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise DomainError("alpha = 0: use b0_qseries")
    # term n uses digit a_{n+1}
    _xs, digits, q_seq, _terminated = _orbit(x, alpha, n_max + 1)
    total = 0.0
    for n, a in enumerate(digits):
        total += u.eval(1.0 / a) * _inv(q_seq[n])
    return total


# -- by-excess sums --------------------------------------------------------

def _b0_orbit_rational(num: int, den: int, n_max: int, keep_terms: bool):
    """Integer-only by-excess orbit of num/den in (0, 1], num/den coprime."""
    value = 0.0
    istar = 0.0
    qs = 0.0
    beta = 1.0
    q_prev, q_cur = 0, 1
    terms = []
    reached_one = False
    steps = 0
    while steps <= n_max:
        if num == den:
            reached_one = True
            break
        term = beta * _log_frac(den, num)
        value += term
        # step rule: num/den -> |den - b*num| / num with
        # b = floor(den/num + 1); gcd(num, den) never changes
        b = den // num + 1
        if b == 2:
            istar += term
        else:
            qs += math.log(b - 1) * _inv(q_cur)
        if keep_terms:
            terms.append((steps, beta, num / den, term))
        beta *= num / den
        q_prev, q_cur = q_cur, b * q_cur - q_prev
        num, den = b * num - den, num
        steps += 1
    return value, qs, istar, beta, reached_one, terms


def _b0_orbit_generic(x0: RealValue, n_max: int, keep_terms: bool):
    value = 0.0
    istar = 0.0
    qs = 0.0
    beta = 1.0
    q_prev, q_cur = 0, 1
    terms = []
    reached_one = False
    steps = 0
    cur = x0
    while steps <= n_max:
        if is_exact(cur) and compare(cur, Fraction(1)) == 0:
            reached_one = True
            break
        xf = to_float(cur)
        term = beta * -math.log(xf)
        value += term
        b, nxt = minus_step(cur)
        if b == 2:
            istar += term
        else:
            qs += math.log(b - 1) * _inv(q_cur)
        if keep_terms:
            terms.append((steps, beta, xf, term))
        beta *= xf
        q_prev, q_cur = q_cur, b * q_cur - q_prev
        cur = nxt
        steps += 1
        if beta < 1e-22:
            # contributions below double precision; the q-series tail is
            # dominated by 1/q* which shrinks at least as fast
            break
    return value, qs, istar, beta, reached_one, terms


def _reduce_mod1(x: RealValue) -> RealValue:
    """Into (0, 1]: x - floor(x), integers mapped to 1."""
    m = floor_shift(x, Fraction(1))
    x0 = sub_int(x, m)
    if is_exact(x0) and sign_val(x0) == 0:
        return Fraction(1)
    return x0


def semi_brjuno(x: RealValue, n_max: int, keep_terms: bool = True,
                with_q_series: bool = False) -> BrjunoResult:
    """Truncated semi-Brjuno sum B0(x) = sum beta*_{n-1} log(1/x_n).

    Once the orbit reaches 1 every later term vanishes, so rational inputs
    produce exact finite sums.  The tail estimate is the run-block bound
    2 * beta* at the truncation index (there is no geometric rate).
    """
    x0 = _reduce_mod1(x)
    if isinstance(x0, Fraction):
        value, qs, istar, beta, done, terms = _b0_orbit_rational(
            x0.numerator, x0.denominator, n_max, keep_terms)
    else:
        value, qs, istar, beta, done, terms = _b0_orbit_generic(
            x0, n_max, keep_terms)
    tail = 0.0 if done else 2.0 * beta
    return BrjunoResult(value, n_max, terms, tail, done or tail < 1e-12,
                        companion_q_series=qs if with_q_series else None,
                        istar_sum=istar)


def b0_qseries(x: RealValue, n_max: int) -> float:
    """Semi-Brjuno companion series sum log(b_{n+1} - 1) / q*_n."""
    return semi_brjuno(x, n_max, keep_terms=False,
                       with_q_series=True).companion_q_series


def b0_even(x: RealValue, n_max: int) -> float:
    """Even part B0(x) + B0(-x); -x mod 1 is 1 - frac(x)."""
    x0 = _reduce_mod1(x)
    if is_exact(x0) and compare(x0, Fraction(1)) == 0:
        raise DomainError("even part undefined at integers")
    a = semi_brjuno(x0, n_max, keep_terms=False).value
    b = semi_brjuno(1 - x0 if isinstance(x0, Fraction) else -(x0 - 1),
                    n_max, keep_terms=False).value
    return a + b


# -- functional equations --------------------------------------------------

def functional_residual(kind: str, x: RealValue, alpha=None,
                        u: Optional[SingularityU] = None,
                        n_max: int = 200) -> float:
    """Residual of the one-step functional equation, truncation-coherent.

    kind 'alpha_eq' (alpha >= 1/2): |B(x) - u(x) - x B(A_alpha(x))|;
    kind 'b0_eq': |B0(x) - log(1/x) - x B0(mod1(-1/x))|.
    Both sides are truncated at n_max and n_max - 1 terms so the residual
    only measures floating-point error.
    """
    xf = to_float(x)
    if kind == "alpha_eq":
        if u is None:
            raise ValueError("alpha_eq needs a weight u")
        alpha = Fraction(alpha)
        if alpha < Fraction(1, 2):
            raise DomainError("the involution form for alpha < 1/2 "
                              "is not evaluated")
        bx = brjuno_sum(x, alpha, u, n_max, keep_terms=False).value
        _digit, nxt = alpha_step(x, alpha)
        if is_exact(nxt) and sign_val(nxt) == 0:
            b_next = 0.0
        else:
            b_next = brjuno_sum(nxt, alpha, u, n_max - 1,
                                keep_terms=False).value
        return abs(bx - u.eval(xf) - xf * b_next)
    if kind == "b0_eq":
        bx = semi_brjuno(x, n_max, keep_terms=False).value
        _b, nxt = minus_step(x)
        b_next = semi_brjuno(nxt, n_max - 1, keep_terms=False).value
        return abs(bx - (-math.log(xf)) - xf * b_next)
    raise ValueError(f"unknown functional equation {kind!r}")


# -- corpus difference reports --------------------------------------------

DIFF_KINDS = ("alpha_vs_1", "b0_vs_qseries", "b1_vs_b0even", "logq_vs_loga")


@dataclass
class BoundReport:
    kind: str
    alpha: Optional[Fraction]
    u_name: Optional[str]
    n_max: int
    corpus_size: int
    per_sample: list[float]
    observed_sup: float
    threshold: Optional[float]
    stable: bool
    worst_input: Optional[str]

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "alpha": str(self.alpha) if self.alpha is not None else None,
            "u": self.u_name,
            "N": self.n_max,
            "corpus_size": self.corpus_size,
            "observed_sup": self.observed_sup,
            "threshold": self.threshold,
            "stable": self.stable,
            "worst_input": self.worst_input,
        })


def log_denominator_sum(x: RealValue, n_max: int = 200) -> float:
    """sum log(q_n)/q_n over the regular (alpha=1) convergents of x."""
    _xs, _digits, q_seq, _terminated = _orbit(x, 1, n_max)
    return sum(math.log(q) * _inv(q) for q in q_seq[1:] if q > 1)


def _logq_vs_loga(x: RealValue, n_max: int) -> float:
    _xs, digits, q_seq, _terminated = _orbit(x, 1, n_max)
    s_q = 0.0
    s_a = 0.0
    for n, a in enumerate(digits):
        s_q += math.log(q_seq[n + 1]) * _inv(q_seq[n])
        s_a += math.log(a) * _inv(q_seq[n])
    return abs(s_q - s_a)


def diff_report(kind: str, corpus: Sequence[RealValue], alpha=None,
                u: Optional[SingularityU] = None, n_max: int = 200,
                threshold: Optional[float] = None,
                stability_tol: float = 1e-6) -> BoundReport:
    """Evaluate a bounded-difference statement over a corpus.

    The report records the observed supremum at the given truncation and a
    stability flag: the sup moved by less than stability_tol*(1+sup) when
    the truncation was doubled.
    """
    if kind not in DIFF_KINDS:
        raise ValueError(f"unknown report kind {kind!r}")

    def sample(x: RealValue, n: int) -> float:
        if kind == "alpha_vs_1":
            return abs(brjuno_sum(x, alpha, u, n, keep_terms=False).value
                       - brjuno_sum(x, 1, u, n, keep_terms=False).value)
        if kind == "b0_vs_qseries":
            res = semi_brjuno(x, n, keep_terms=False, with_q_series=True)
            return abs(res.value - res.companion_q_series)
        if kind == "b1_vs_b0even":
            b1 = brjuno_sum(x, 1, u or make_u("log"), n,
                            keep_terms=False).value
            return abs(b1 - b0_even(x, n))
        return _logq_vs_loga(x, n)

    vals = [sample(x, n_max) for x in corpus]
    vals2 = [sample(x, 2 * n_max) for x in corpus]
    sup = max(vals, default=0.0)
    sup2 = max(vals2, default=0.0)
    stable = abs(sup2 - sup) < stability_tol * (1.0 + sup)
    worst = None
    if vals:
        worst = str(corpus[max(range(len(vals)), key=vals.__getitem__)])
    return BoundReport(kind, Fraction(alpha) if alpha is not None else None,
                       u.name if u is not None else None, n_max, len(corpus),
                       vals, sup, threshold, stable, worst)
