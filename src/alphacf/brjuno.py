"""Generalized Brjuno sums and the by-excess (semi-Brjuno) variant.

``brjuno_sum`` evaluates B_{alpha,u}(x) = sum beta_{n-1} u(x_n) over the
alpha-continued fraction orbit of x, for a positive C^1 weight u singular
at 0.  ``semi_brjuno`` is the alpha=0, u=-log case, summed over the
by-excess orbit, where convergence is driven by the run structure instead
of a geometric decay.  Companion q-series, functional-equation residuals,
corpus-wide difference reports and the rows of figures 1-4 live here too.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence

from .alpha import (_SurdWalk, _alpha_seed, _orbit, _rho_power, alpha_expand,
                    alpha_step)
from .byexcess import _reduce_mod1, minus_step
from .exact import (DomainError, RealValue, Surd, _surd_double, compare,
                    is_exact, sign_val, to_float)

_DELTA = 0.1   # weights are checked on the scales _DELTA 2^-k near 0
_LO = _DELTA / (1 + _DELTA)   # M1 is the sup of u on (_LO, 1)
_HUGE = 2 ** 1024 - 2 ** 970   # the least int whose double overflows
_GRID = 2000   # _grid_sup reads a custom weight at _GRID + 1 points


class ConditionViolation(ValueError):
    """Weight function fails the growth conditions at the origin."""


def _inv(q: int) -> float:
    """1/q as a double: 1.0 / q while the double of q is finite, past it the
    correctly rounded 1 / q, which is 0.0 from q = 2**1075 on."""
    return 1.0 / q if q < _HUGE else 1 / q


def _recip(a: int) -> float:
    """_inv(a) for the q-series weight u(1/a), which must not be 0.0."""
    if w := _inv(a):
        return w
    raise DomainError(f"1/a_n is below 2**-1074 for a digit of "
                      f"{a.bit_length()} bits, outside the double range")


def _rates(alpha) -> tuple[float, float]:
    """(rho, abar): the correctly rounded doubles of rho_alpha(alpha) and
    alpha_bar(alpha), from the integers of _rho_power and alpha = r/s."""
    a, b, c, e, k = _rho_power(alpha)
    if k == 1:
        rho = _surd_double(a, b, c, 0, e)
    else:   # rho = sqrt(a/c) = sqrt(a c)/c, rational where a c is a square
        d = a * c
        root = math.isqrt(d)
        rho = root / c if root * root == d else _surd_double(0, 1, c, 0, d)
    r, s = alpha.numerator, alpha.denominator
    return rho, max(r, s - r) / s


@dataclass(frozen=True)
class SingularityU:
    """A positive C^1 weight on (0,1), singular at the origin.

    M1 is the supremum of u on (_LO, 1), which scales the tail estimate of
    ``brjuno_sum``.  U bounds u at every double a sum can read, those in
    [2**-1074, 1]: u(2**-1074) for a built-in weight, which decreases, and
    inf for a custom one or where u(2**-1074) overflows.  ``brjuno_sum``
    stops on it once no later term can change a field.
    """

    name: str
    eval: Callable[[float], float]
    M1: float
    U: float = math.inf


def _grid_sup(f: Callable[[float], float], lo: float, hi: float) -> float:
    eps = (hi - lo) * 1e-12
    best = -math.inf
    for i in range(_GRID + 1):
        t = lo + (hi - lo) * i / _GRID
        t = min(max(t, lo + eps), hi - eps)
        v = f(t)
        if v > best:
            best = v
    return best


def _check_conditions(u: Callable[[float], float],
                      du: Callable[[float], float]) -> None:
    scales = [_DELTA * 2.0 ** (-k) for k in range(1, 51)]
    u_vals = [u(t) for t in scales]
    if not u_vals[-1] >= 10.0 or u_vals[-1] <= u_vals[0]:
        raise ConditionViolation("u does not diverge at the origin")
    for label, seq in (("x*u(x)", [t * u(t) for t in scales]),
                       ("x^2*u'(x)", [abs(t * t * du(t)) for t in scales])):
        if seq[-1] > 1e9 and seq[-1] > 4 * seq[len(seq) // 2]:
            raise ConditionViolation(f"{label} is unbounded near 0")


def make_u(name: str, sigma: Optional[float] = None,
           eval_fn: Optional[Callable[[float], float]] = None,
           deriv_fn: Optional[Callable[[float], float]] = None) -> SingularityU:
    """Build a weight: 'log', 'inv_sqrt', 'power' (with sigma > 1) or custom.

    M1 is the max of u over _grid_sup's grid on (_LO, 1); a built-in weight
    decreases, so it is u at the grid's first point, and U is u(2**-1074)
    (see SingularityU)."""
    if name == "log":
        ev = lambda t: -math.log(t)
        dv = lambda t: -1.0 / t
    elif name == "inv_sqrt":
        ev = lambda t: t ** -0.5
        dv = lambda t: -0.5 * t ** -1.5
    elif name == "power":
        if sigma is None or not sigma > 1:
            raise ConditionViolation("power weight requires sigma > 1")
        ev = lambda t: t ** (-1.0 / sigma)
        dv = lambda t: -(1.0 / sigma) * t ** (-1.0 / sigma - 1.0)
    elif eval_fn is not None and deriv_fn is not None:
        _check_conditions(eval_fn, deriv_fn)
        return SingularityU(name, eval_fn, _grid_sup(eval_fn, _LO, 1.0))
    else:
        raise ValueError(f"unknown weight {name!r} and no custom (eval, deriv)")
    _check_conditions(ev, dv)
    try:
        U = ev(2.0 ** -1074)
    except OverflowError:   # power with sigma < 1074/1024
        U = math.inf
    return SingularityU(name, ev, ev(_LO + (1.0 - _LO) * 1e-12), U)


@dataclass
class BrjunoResult:
    value: float
    n_max: int
    terms: list  # (n, beta_prev, x_n, term)
    tail_estimate: float
    converged: bool
    companion_q_series: Optional[float] = None
    istar_sum: Optional[float] = None  # by-excess only: sum over the 2-digit indices

    def to_csv_rows(self) -> list[list]:
        return [["n", "beta_prev", "x_n", "term"], *map(list, self.terms)]


def brjuno_sum(x: RealValue, alpha, u: SingularityU, n_max: int,
               keep_terms: bool = True,
               with_q_series: bool = False) -> BrjunoResult:
    """Truncated B_{alpha,u}(x), alpha in (0, 1].

    The input is reduced by x0 = |x - floor(x+1-alpha)| first; rational
    orbits terminate and contribute only their finite terms.  One pass over
    the orbit reads each x_n as its correctly rounded double: _b1_terms
    steps a rational's integers, and _real_terms reads a Surd's lazy walk
    (_SurdWalk), taking the double and u of each distinct state once, or an
    AdaptiveReal's certified records.  Only with_q_series runs the
    q-recurrence and the companion series sum u(1/a_{n+1})/q_n over the
    same records.

    Without a ledger an irrational sum stops, before the orbit certifies
    another step, where no field can change any more: once beta_prev W and
    Wq/q_n are absorbed, below half an ulp of the value and of the q-series
    (or 0.0), and beta_prev W below 1e-12.  W and Wq bound every later
    u(x_n) and u(1/a_{n+1}).  Once a Surd replays they are the largest of
    each over its period (inf, which no bound passes, where a weight read
    is not >= 0).  Otherwise both are u.U, and only where rho**n_max is
    0.0, so that the tail is 0.0 too.  beta never grows (x_n <= 1) and q_n
    never shrinks (a digit after a minus sign is >= 2), so no later term is
    larger.  At beta_prev = 0.0 the bound is 0.0, also for W = inf.
    ``converged`` reads the bound as the last term, and a Surd's tail reads
    the weights of the last five steps off the period.  So a periodic
    Surd's cost stops growing with n_max, and a later x_n below 2**-1074
    that the exit skips raises nothing.
    """
    if not isinstance(alpha, (int, Fraction)):
        alpha = Fraction(alpha)
    if not alpha:
        raise DomainError("alpha = 0 has no (alpha,u)-sum here; "
                          "use semi_brjuno for the log weight")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    n0, eps0, m = _alpha_seed(x, alpha)
    rates = None   # an int or Fraction's orbit ends: rho only for a tail
    if isinstance(x, (int, Fraction)):
        r, s = alpha.numerator, alpha.denominator
        if not 0 < r <= s:
            raise DomainError(f"alpha must be in [0,1], got {alpha}")
        value, terms, qs, recent, term = _b1_terms(
            eps0 * (x.numerator - n0 * x.denominator), x.denominator, r, s,
            u.eval, n_max, keep_terms, with_q_series)
    else:
        rates = _rates(alpha)
        # with no ledger and rho**n_max = 0.0 the tail is 0.0
        final = not (keep_terms or rates[0] ** n_max)
        value, terms, qs, recent, term = _real_terms(
            _SurdWalk(x, alpha, m) if isinstance(x, Surd)
            else _orbit(x, alpha, m), u.eval, n_max, keep_terms,
            with_q_series, u.U if final else None)
    if term is None:   # the orbit reached 0 within the budget
        return BrjunoResult(value, n_max, terms, 0.0, True, qs)
    rho, abar = rates or _rates(alpha)
    tail = abar * rho ** n_max / (1.0 - rho) * max([*recent, u.M1])
    converged = term < 1e-12 and tail < 1e-6
    return BrjunoResult(value, n_max, terms, tail, converged, qs)


def _b1_terms(num: int, den: int, r: int, s: int, f, n_max: int,
              keep_terms: bool, with_q_series: bool) -> tuple:
    """brjuno_sum's pass over a rational x_0 = num/den at alpha = r/s > 0,
    stepped by _rational_orbit's rule: (value, terms, q-series, recent,
    last term), the last term None where the orbit reached 0 within n_max."""
    beta_prev, value, xf = 1.0, 0.0, 1.0
    qs = 0.0 if with_q_series else None
    q_prev, q, eps_prev = 0, 1, 1
    terms, recent = [], []   # recent: u of x_n for n > n_max - 5
    last5, t, n = n_max - 5, s - r, 0
    try:
        while 0 < num < den:
            xf = num / den
            uval = f(xf)
            term = beta_prev * uval
            value += term
            if keep_terms:
                terms.append((n, beta_prev, xf, term))
            a = (s * den + t * num) // (s * num)
            rem = den - a * num
            if with_q_series:
                qs += f(_recip(a)) * _inv(q)
                q_prev, q = q, a * q + eps_prev * q_prev
                eps_prev = -1 if rem < 0 else 1
            if n > last5:
                recent.append(uval)
                if n == n_max:
                    break
            beta_prev *= xf
            num, den, n = abs(rem), num, n + 1
        else:   # the orbit reached 0 within the budget
            term = None
    except (ValueError, ZeroDivisionError):
        if xf:
            raise
        raise DomainError(f"x_{n} is below 2**-1074, outside the double "
                          "range") from None
    return value, terms, qs, recent, term


def _real_terms(orbit, f, n_max: int, keep_terms: bool, with_q_series: bool,
                U: Optional[float]) -> tuple:
    """_b1_terms over an irrational orbit: a Surd's _SurdWalk, whose double
    and weights it takes once per distinct state and reads by index on a
    replay, or an AdaptiveReal's records (f, 1, a, eps, 1), a certified
    double over 1.  Without a ledger it stops at brjuno_sum's exit, tested
    before the orbit certifies another step; U bounds every weight until a
    Surd's period closes, and None gives no bound."""
    walk = orbit if isinstance(orbit, _SurdWalk) else None
    beta_prev, value, xf = 1.0, 0.0, 1.0
    qs = 0.0 if with_q_series else None
    q_prev, q, eps_prev = 0, 1, 1
    terms, recent = [], []   # recent: u of x_n for n > n_max - 5
    fs, us, qw = [], [], []   # per Surd state: x_n, u(x_n), (a, eps, u(1/a))
    W = Wq = U   # the bounds on every later u(x_n) and u(1/a_{n+1})
    closing = walk is not None and not keep_terms   # W waits for the period
    last5 = n_max - 5
    try:
        for n, step in enumerate(orbit):
            if walk is None:
                num, den, a, eps, _k = step
                xf = num / den
                uval = f(xf)
                if with_q_series:
                    ua = f(_recip(a))
            else:
                if step == len(fs):   # x_n, a new state
                    fs.append(xf := walk.double(step))
                    us.append(f(xf))
                    if with_q_series:
                        _P, _Q, a, eps = walk.states[step]
                        qw.append((a, eps, f(_recip(a))))
                xf, uval = fs[step], us[step]
                if with_q_series:
                    a, eps, ua = qw[step]
            term = beta_prev * uval
            value += term
            if keep_terms:
                terms.append((n, beta_prev, xf, term))
            if with_q_series:
                qs += ua * _inv(q)
                q_prev, q, eps_prev = q, a * q + eps_prev * q_prev, eps
            if n > last5:
                recent.append(uval)
                if n == n_max:
                    break
            beta_prev *= xf
            if closing and walk.i is not None:   # a replayed step
                closing = False
                W, Wq = _period_sups(us, qw, walk.i)
            if W is None:
                continue
            bound = beta_prev and beta_prev * W
            if bound < 1e-12 and (not bound or bound < math.ulp(value) / 2):
                bq = with_q_series and (iq := _inv(q)) and Wq * iq
                if not bq or bq < math.ulp(qs) / 2:
                    term = bound   # no later term is larger
                    if walk is not None and not closing:
                        recent = [us[walk.index(k)] for k in
                                  range(max(n_max - 4, 0), n_max + 1)]
                    break
        else:   # the orbit reached 0 within the budget
            term = None
    except (ValueError, ZeroDivisionError):
        if xf:
            raise
        raise DomainError(f"x_{n} is below 2**-1074, outside the double "
                          "range") from None
    return value, terms, qs, recent, term


def _period_sups(us, qw, i: int) -> tuple[float, float]:
    """(W, Wq): the sups of u(x_n) and u(1/a_{n+1}) over a Surd's period,
    the records from i on; inf, which no bound passes, where a weight read
    is not >= 0.  With none, the value and the q-series never fall."""
    wqs = [ua for _a, _eps, ua in qw]
    if not all(w >= 0 for w in us + wqs):
        return math.inf, math.inf
    return max(us[i:]), max(wqs[i:], default=0.0)


def q_series(x: RealValue, alpha, u: SingularityU, n_max: int) -> float:
    """Companion series sum u(1/a_{n+1}) / q_n over the same expansion."""
    if Fraction(alpha) == 0:
        raise DomainError("alpha = 0: use semi_brjuno(with_q_series=True)")
    return brjuno_sum(x, alpha, u, n_max, keep_terms=False,
                      with_q_series=True).companion_q_series


# -- by-excess sums --------------------------------------------------------

def semi_brjuno(x: RealValue, n_max: int, keep_terms: bool = True,
                with_q_series: bool = False) -> BrjunoResult:
    """Truncated semi-Brjuno sum B0(x) = sum beta*_{n-1} log(1/x_n).

    The terms run over x_0 .. x_{n_max} of the by-excess orbit of
    x - floor(x), in one pass.  Once the orbit reaches 1 every later term
    vanishes, so rational inputs produce exact finite sums.  The tail
    estimate is the run-block bound 2 * beta* at the truncation index (no
    geometric rate).  A rational runs _b0_terms.  An irrational x runs one
    loop that stops at beta* < 1e-22: a Surd reads the indices of its lazy
    walk (_SurdWalk) and takes the double and -log of each distinct state
    once, and an AdaptiveReal reads its records, a certified double over 1
    or a run of 2's as a list of them, summed in an inner loop; q*_n is an
    arithmetic progression along a run.  Only with_q_series runs the
    q*-recurrence and the companion series sum log(b_{n+1} - 1)/q*_n.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    log = math.log
    value = istar = qs = 0.0
    beta = 1.0
    q_prev, q_cur = 0, 1
    terms = []
    done = False
    if isinstance(x, (int, Fraction)):
        # x_0 = frac(x): the seed's den row is (0, 1)
        value, istar, qs, beta, terms, done = _b0_terms(
            x.numerator % x.denominator, x.denominator, n_max, keep_terms,
            with_q_series)
    else:
        # past beta* < 1e-22 the terms (and the q-series' 1/q* tail) are
        # below double precision
        m = _alpha_seed(x, 1)[2]
        walk = _SurdWalk(x, 0, m) if isinstance(x, Surd) else None
        recs = []   # per Surd state: x_n, -log x_n, b and log(b - 1)
        n, den, k = 0, 1, 1   # the terms summed; a Surd's steps are single
        for step in _orbit(x, 0, m) if walk is None else walk:
            if walk is not None:   # x_n is the walk's state step
                if step == len(recs):
                    xf, b = walk.double(step), walk.states[step][2]
                    recs.append((xf, -log(xf), b, log(b - 1)
                                 if with_q_series and b > 2 else 0.0))
                xf, w, b, wq = recs[step]
            else:
                xf, den, b, _eps, k = step
                if den:   # one step, x_n = xf
                    w = -log(xf)
                    wq = log(b - 1) if with_q_series and b > 2 else 0.0
                else:   # a run of 2's as a list, which the budget may cut
                    for xf in xf[:n_max + 1 - n]:
                        term = beta * -log(xf)
                        value += term
                        istar += term
                        if keep_terms:
                            terms.append((len(terms), beta, xf, term))
                        beta *= xf
                        if beta < 1e-22:
                            break
                    if with_q_series:   # not read again if the run was cut
                        d = q_cur - q_prev
                        q_prev, q_cur = q_cur + (k - 1) * d, q_cur + k * d
            if den:
                term = beta * w
                value += term
                if b == 2:
                    istar += term
                elif with_q_series:
                    qs += wq * _inv(q_cur)
                if keep_terms:
                    terms.append((n, beta, xf, term))
                beta *= xf
                if with_q_series:
                    q_prev, q_cur = q_cur, b * q_cur - q_prev
            n += k
            if n > n_max or beta < 1e-22:
                break
        else:
            done = True   # an exact point enclosure reached 1
    tail = 0.0 if done else 2.0 * beta
    return BrjunoResult(value, n_max, terms, tail, done or tail < 1e-12,
                        qs if with_q_series else None, istar)


def _b0_terms(num: int, den: int, n_max: int, keep_terms: bool,
              with_q_series: bool) -> tuple:
    """semi_brjuno's pass over the by-excess orbit of x_0 = num/den, in
    lowest terms: (value, istar, q*-series, beta*, terms, done), done where
    the orbit reached 1 (0 at num = 0) within the budget n_max.  It calls
    math.log; a figure grid sums the value alone from its log table in
    _b0_value, and reads [0] here where q is outside the table."""
    log = math.log
    value = istar = qs = 0.0
    beta = 1.0
    q_prev, q_cur = 0, 1
    terms = []
    n = 0   # the terms summed
    # den_{n+1} = num_n: log(den) is the previous log(num).  The published
    # figures were computed with log(den) - log(num)
    log_den = log(den)
    while 0 < num < den:
        c = den - num
        if num > c:   # x_n > 1/2: a run of 2's, which the budget may cut;
            # the float operations of k single steps, in their order
            k = min((num - 1) // c, n_max + 1 - n)
            for num in range(num, num - k * c, -c):
                xf = num / (num + c)
                log_num = log(num)
                term = beta * (log_den - log_num)
                log_den = log_num
                value += term
                istar += term
                if keep_terms:
                    terms.append((len(terms), beta, xf, term))
                beta *= xf
            num, den = num - c, num
            if with_q_series:   # an arithmetic progression along a run
                d = q_cur - q_prev
                q_prev, q_cur = q_cur + (k - 1) * d, q_cur + k * d
        else:   # the digit b = den // num + 1 >= 3
            k, b = 1, den // num + 1
            xf = num / den
            log_num = log(num)
            term = beta * (log_den - log_num)
            log_den = log_num
            value += term
            if with_q_series:
                qs += log(b - 1) * _inv(q_cur)
                q_prev, q_cur = q_cur, b * q_cur - q_prev
            if keep_terms:
                terms.append((n, beta, xf, term))
            beta *= xf
            num, den = b * num - den, num
        n += k
        if n > n_max:
            return value, istar, qs, beta, terms, False
    return value, istar, qs, beta, terms, True


def b0_even(x: RealValue, n_max: int) -> float:
    """Even part B0(x) + B0(-x); -x mod 1 is 1 - frac(x)."""
    x0 = _reduce_mod1(x)
    if is_exact(x0) and compare(x0, Fraction(1)) == 0:
        raise DomainError("even part undefined at integers")
    a = semi_brjuno(x0, n_max, keep_terms=False).value
    b = semi_brjuno(1 - x0, n_max, keep_terms=False).value
    return a + b


# -- figure grids ----------------------------------------------------------

_NUDGE = 2 * 10 ** 9   # grid points on the integers move by 1/_NUDGE
_TABLE = 2 ** 13   # the bound on a grid's log table, whatever its points


def _log_table(top: int) -> list:
    """[0.0, log 1, .., log top] for a grid whose denominators divide top,
    and [] from top = _TABLE on, so that it holds at most 2**13 doubles."""
    return [0.0, *map(math.log, range(1, top + 1))] if top < _TABLE else []


def _b1_value(num: int, den: int, f, n_max: int) -> float:
    """_b1_terms(num, den, 1, 1, f, n_max, False, False)[0]: the same float
    operations, at alpha = 1, where the next state is (den % num, num)."""
    beta, value, xf = 1.0, 0.0, 1.0
    try:
        for n in range(n_max + 1):
            if not num:
                break
            xf = num / den
            value += beta * f(xf)
            beta *= xf
            num, den = den % num, num
    except (ValueError, ZeroDivisionError):
        if xf:
            raise
        raise DomainError(f"x_{n} is below 2**-1074, outside the double "
                          "range") from None
    return value


def _b0_value(num: int, den: int, n_max: int, logs: list) -> float:
    """_b0_terms(num, den, n_max, False, False)[0] with the logs read from a
    grid's _log_table, math.log's doubles: the same float operations."""
    value, beta, n = 0.0, 1.0, 0
    log_den = logs[den]
    while 0 < num < den:
        c = den - num
        if num > c:   # a run of 2's, which the budget may cut
            k = min((num - 1) // c, n_max + 1 - n)
            for num in range(num, num - k * c, -c):
                log_num = logs[num]
                value += beta * (log_den - log_num)
                log_den = log_num
                beta *= num / (num + c)
            num, den = num - c, num
        else:
            k, log_num = 1, logs[num]
            value += beta * (log_den - log_num)
            log_den = log_num
            beta *= num / den
            num, den = (den // num + 1) * num - den, num
        n += k
        if n > n_max:
            break
    return value


def _figure_grid(lo: Fraction, hi: Fraction, points: int) -> Iterator:
    """x_k = lo + (hi - lo) k / (points - 1) as a reduced pair (p, q), q > 0,
    an integer n moved to (n _NUDGE + 1, _NUDGE).  For lo = a/b and hi =
    c/d, x_k = (a d (P-1) + (c b - a d) k) / (b d (P-1))."""
    a, b = lo.numerator, lo.denominator
    c, d = hi.numerator, hi.denominator
    m = points - 1
    start, step, den = a * d * m, c * b - a * d, b * d * m
    for num in range(start, start + step * points, step):
        g = math.gcd(num, den)
        p, q = num // g, den // g
        yield (p, q) if q != 1 else (p * _NUDGE + 1, _NUDGE)


def figure_rows(which: int, lo, hi, points: int, n: int,
                digits: int) -> Iterator:
    """Figure ``which`` on ``points`` grid points in [lo, hi], lazily: the
    header, then a tuple of floats per point.  1 is B_{1,u} for u = x^(-1/2),
    2 is B0, 3 the even part B0(x) + B0(-x) and B_{1,log}, 4 their difference.
    B_1 takes n terms and B0 ``digits``; the arguments are checked at once.
    Each point p/q runs value-only loops on x_0 = (p % q)/q: _b1_value, and
    _b0_value, which reads its logs from the grid's _log_table, where q is
    inside it.  Elsewhere B0 is _b0_terms' value, which calls math.log: at
    nudged points, and on a grid whose top = lo.denominator hi.denominator
    (points - 1), which every other q divides, is 2**13 or more."""
    if which not in (1, 2, 3, 4):
        raise ValueError(f"no figure {which!r}")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi or points < 2:
        raise ValueError("need lo < hi and points >= 2")
    if n < 0 or digits < 0:
        raise ValueError("n_max must be >= 0")
    return _figure_rows(which, lo, hi, points, n, digits)


def _figure_rows(which, lo, hi, points, n, digits):
    yield (["x", "value"] if which < 3 else ["x", "b0even", "b1"]
           if which == 3 else ["x", "diff"])
    f = make_u("inv_sqrt" if which == 1 else "log").eval
    xs, mirrored = _figure_grid(lo, hi, points), lo + hi == 1
    # every point's q divides top, but for nudged points
    logs = [] if which == 1 else _log_table(
        lo.denominator * hi.denominator * (points - 1))

    def b0_at(p, q):   # B0 at p/q mod 1, the same double either way
        return (_b0_value(p % q, q, digits, logs) if q < len(logs)
                else _b0_terms(p % q, q, digits, False, False)[0])
    cols, key = (array("d"), array("d"), array("d")), None
    # 512 points at a time: a block's points, then its B0 sums, then its
    # B1 sums run faster than the three interleaved point by point
    while block := list(islice(xs, 512)):
        # p/q is the correctly rounded double of the point, as to_float
        xf = [p / q for p, q in block]
        if which != 1:
            b0 = [b0_at(p, q) for p, q in block]
        if which != 2:
            b1 = [_b1_value(p % q, q, f, n) for p, q in block]
        if which < 3:
            yield from zip(xf, b1 if which == 1 else b0)
            continue
        # one double per point of x, B0 and B1.  B0(1 - x) = B0 at the mirror
        # point of a grid with lo + hi = 1; once both are in, both slots
        # hold the even part.  Nudged points, n + 1/_NUDGE, and all others
        # of that denominator, go off the grid with their mirrors; those of
        # nudged points, 1 - 1/_NUDGE mod 1, share one orbit
        k0 = len(cols[0])
        for col, vals in zip(cols, (xf, b0, b1)):
            col.extend(vals)
        b0e = cols[1]
        for k, (p, q) in enumerate(block, k0):
            if not mirrored or q == _NUDGE:
                if ((q - p) % q, q) != key:   # 1 - x mod 1, in lowest terms
                    key = (q - p) % q, q
                    b0_key = b0_at(*key)
                b0e[k] += b0_key
            elif 2 * k >= points - 1:
                j = points - 1 - k
                b0e[k] = b0e[j] = b0e[k] + b0e[j]
    if which == 3:
        yield from zip(*cols)
    elif which == 4:
        # difference of the 15-digit values figure 3 publishes, so the two
        # CSVs agree bit-for-bit
        for x, e, b in zip(*cols):
            yield x, float(f"{b:.15g}") - float(f"{e:.15g}")


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
STABILITY_TOL = 1e-6   # see diff_report


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
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    q_seq = alpha_expand(x, 1, n_max).q_seq
    return sum(math.log(q) * _inv(q) for q in q_seq[1:] if q > 1)


def _logq_vs_loga(x: RealValue, n_max: int) -> float:
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    exp = alpha_expand(x, 1, n_max)
    s_q = 0.0
    s_a = 0.0
    for (a, _eps), q_prev, q in zip(exp.digits, exp.q_seq, exp.q_seq[1:]):
        s_q += math.log(q) * _inv(q_prev)
        s_a += math.log(a) * _inv(q_prev)
    return abs(s_q - s_a)


def diff_report(kind: str, corpus: Sequence[RealValue], alpha=None,
                u: Optional[SingularityU] = None, n_max: int = 200,
                threshold: Optional[float] = None) -> BoundReport:
    """Evaluate a bounded-difference statement over a corpus.

    The report records the observed supremum at the given truncation and a
    stability flag: the sup moved by less than STABILITY_TOL*(1+sup) when
    the truncation was doubled.  alpha_vs_1 and b1_vs_b0even weigh their
    B_{alpha,u} sums with u (default: the log weight) and name it; only
    alpha_vs_1 sums an alpha-series, so only it needs and reports alpha.
    """
    if kind not in DIFF_KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    if kind == "alpha_vs_1" and alpha is None:
        raise ValueError("alpha_vs_1 needs an alpha")
    weight = None
    if kind in ("alpha_vs_1", "b1_vs_b0even"):
        weight = u if u is not None else make_u("log")

    def sample(x: RealValue, n: int) -> float:
        if kind == "alpha_vs_1":
            return abs(brjuno_sum(x, alpha, weight, n, keep_terms=False).value
                       - brjuno_sum(x, 1, weight, n, keep_terms=False).value)
        if kind == "b0_vs_qseries":
            res = semi_brjuno(x, n, keep_terms=False, with_q_series=True)
            return abs(res.value - res.companion_q_series)
        if kind == "b1_vs_b0even":
            b1 = brjuno_sum(x, 1, weight, n, keep_terms=False).value
            return abs(b1 - b0_even(x, n))
        return _logq_vs_loga(x, n)

    vals = [sample(x, n_max) for x in corpus]
    vals2 = [sample(x, 2 * n_max) for x in corpus]
    sup = max(vals, default=0.0)
    sup2 = max(vals2, default=0.0)
    stable = abs(sup2 - sup) < STABILITY_TOL * (1.0 + sup)
    worst = None
    if vals:
        worst = str(corpus[max(range(len(vals)), key=vals.__getitem__)])
    return BoundReport(kind, Fraction(alpha) if kind == "alpha_vs_1" else None,
                       weight.name if weight is not None else None, n_max,
                       len(corpus), vals, sup, threshold, stable, worst)
