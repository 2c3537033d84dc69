"""Alpha-continued fraction expansions.

For a parameter alpha in [0, 1] the map

    A_alpha(x) = | 1/x - floor(1/x + 1 - alpha) |

acts on (0, max(alpha, 1-alpha)).  alpha=1 is the Gauss map, alpha=1/2 the
nearest-integer map, alpha=0 the by-excess map (see ``byexcess`` for the
closed-interval version of the latter).  This module produces digits,
signs, matrix convergents and the error products beta_n = x_0 ... x_n, and
checks the identities and decay bounds they satisfy.
"""

from __future__ import annotations

import decimal
import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, count, cycle, islice
from typing import Iterator, NamedTuple, Optional

from .exact import (AdaptiveReal, DomainError, ExactnessUnavailable,
                    NeedsPrecision, RealValue, Surd, _json_chunks, _ladder,
                    _power_cmp, _surd_double, _surd_sign, compare,
                    floor_shift, is_exact, recip, sign_val, to_float)

_RUN_RECORD = 64   # the most steps in one certified run record (_orbit)


def alpha_bar(alpha) -> Fraction:
    """Right endpoint of the expansion interval: max(alpha, 1 - alpha)."""
    alpha = Fraction(alpha)
    return max(alpha, 1 - alpha)


class AlphaDigit(NamedTuple):
    a: int
    eps: int  # sign of 1/x - a; +1 by convention on a terminating step


@dataclass(frozen=True)
class ConvergentPair:
    p_prev: int
    q_prev: int
    p: int
    q: int
    det: int  # p_prev*q - q_prev*p, always +-1


@dataclass
class AlphaExpansion:
    """Digits, remainders, convergents and beta products of one input;
    betas is built on first read (_betas) and cached, and assigning it
    overrides it."""

    alpha: Fraction
    x: RealValue
    integer_part: int
    eps0: int
    digits: list[AlphaDigit]
    remainders: list  # x_0 .. x_D
    p_seq: list[int]  # p_0 .. p_D
    q_seq: list[int]  # q_0 .. q_D
    terminated: bool

    @cached_property
    def betas(self) -> list:   # beta_0 .. beta_D
        return _betas(self.x, self.eps0, self.integer_part, self.digits,
                      self.remainders)

    def reduced(self) -> RealValue:
        """x - integer_part, the signed value the convergents approximate."""
        return self.x - self.integer_part

    @property
    def convergents(self) -> list[ConvergentPair]:
        out = []
        prev_p, prev_q = 1, 0
        eps_count = 0
        eps_stream = [self.eps0] + [d.eps for d in self.digits]
        for n in range(len(self.p_seq)):
            det = 1 if eps_count % 2 == 0 else -1
            out.append(ConvergentPair(prev_p, prev_q,
                                      self.p_seq[n], self.q_seq[n], det))
            prev_p, prev_q = self.p_seq[n], self.q_seq[n]
            if n < len(eps_stream) and eps_stream[n] == 1:
                eps_count += 1
        return out

    def to_json_chunks(self) -> Iterator[str]:
        """The JSON text, one convergent per chunk."""
        p_seq, q_seq = _convergent_text(self.digits, self.eps0)
        return _json_chunks({
            "alpha": str(self.alpha),
            "x": str(self.x),
            "integer_part": self.integer_part,
            "digits": [{"a": d.a, "eps": d.eps} for d in self.digits],
            "convergents": None,
            "terminated": self.terminated,
        }, "convergents", zip(p_seq, q_seq))

    def to_csv_rows(self) -> list[list]:
        """Header and one row per digit; p and q are exact Decimals."""
        rows = [["n", "a", "eps", "p", "q", "beta"]]
        signs = [d.eps for d in self.digits]
        p_seq, q_seq = _convergent_text(self.digits, self.eps0)
        xr = self.reduced()   # a Surd's last row has no q_{n+1}: Lemma 1
        beta = (lambda n: abs(xr * self.q_seq[n] - self.p_seq[n])
                if isinstance(xr, Surd) else self.betas[n])
        for n, d in enumerate(self.digits, start=1):
            rows.append([n, d.a, d.eps, p_seq[n], q_seq[n],
                         _beta_float(beta, self.remainders, self.q_seq,
                                     signs, n)])
        return rows


def _beta_float(beta, remainders, q_seq, signs, n: int) -> float:
    """The double of beta_n, with signs[n] = eps_{n+1}.  A surd beta_n
    cancels to about 1/q_n, but 1/(q_{n+1} + eps_{n+1} q_n x_{n+1}) is
    c/(a' + b' sqrt(d)) for x_{n+1} = (a + b sqrt(d))/c, with nothing to
    cancel, for _surd_double.  Else, or without q_{n+1}, to_float(beta(n))."""
    x = remainders[n + 1] if n + 1 < len(q_seq) else None
    if not isinstance(x, Surd):
        return to_float(beta(n))
    eps_q = signs[n] * q_seq[n]
    return _surd_double(x.c, 0, x.c * q_seq[n + 1] + eps_q * x.a,
                        eps_q * x.b, x.d)


def alpha_reduce(x: RealValue, alpha) -> tuple[int, RealValue]:
    """Reduce an arbitrary real into [0, abar]: (floor(x+1-alpha), |x - it|)."""
    n, eps0, m = _alpha_seed(x, Fraction(alpha))
    if isinstance(x, AdaptiveReal):
        return n, x.mobius(*m)
    return n, eps0 * (x - n)


def _alpha_seed(x: RealValue, alpha) -> tuple[int, int, tuple]:
    """(n0, eps0, m0) with x_0 = eps0 (x - n0) = m0(x) >= 0 (eps0 = +1 at
    integers): the A_alpha seed matrix, for an int or Fraction alpha."""
    if isinstance(x, (int, Fraction)):
        r, s = alpha.numerator, alpha.denominator
        p, q = x.numerator, x.denominator
        n0 = (s * p + (s - r) * q) // (s * q)   # floor(x + 1 - alpha)
        eps0 = -1 if p < n0 * q else 1
    else:
        n0 = floor_shift(x, alpha)
        # x - n0 >= 0 at alpha = 1; else compare decides its sign, in
        # integers for a Surd and with no Moebius image of an AdaptiveReal
        eps0 = 1 if alpha == 1 else compare(x, n0) or 1
    return n0, eps0, (eps0, -eps0 * n0, 0, 1)


def _orbit(x: RealValue, alpha, m: tuple):
    """The A_alpha orbit of any carrier x from the seed matrix m.

    x_n = m_n(x) = (A x + B)/(C x + D) for integer matrices m_n.  The walk
    yields records (num, den, a, eps, k) for x_n in (0, 1): k consecutive
    steps from x_n = num/den, each with the digit a and the sign eps.  k is
    1 except in a by-excess run of 2's: at alpha = 0, while x_n > 1/2 the
    digit is 2, c = den - num stays fixed and num falls by c, so the whole
    run is one record with k = (num - 1) // c.  A rational x = p/q steps
    on num/den = x_n itself, from [num; den] = m [p; q] (_rational_orbit,
    which _orbit returns), and ends at a remainder 0 (a terminating
    expansion) or 1 (the by-excess fixed point).  A Surd walks its exact
    (P, Q, D) states lazily (_SurdWalk) and yields the correctly rounded
    double of x_n over 1, taken once per distinct state; past the first
    repeated state it replays the period.  An AdaptiveReal walks the
    rational orbits of both ends of one enclosure in lockstep, a pair of
    records in one frame.  A step is accepted when the
    ends give the same digit, sign and double (all monotone in x_n), and
    yields that certified double over 1, (f, 1, a, eps, 1); where both ends
    hold runs (k > 1, alpha = 0 only) the certified doubles go out as
    records (doubles, 0, 2, -1, len(doubles)) of at most _RUN_RECORD steps,
    as a sum may stop inside a run.  At the first uncertified step n it
    yields the certified prefix, climbs the _ladder, and goes on from m_n,
    solved from the two ends' states there: [num; den] = m_n [p; q] for
    each end p/q.  No matrix or state is kept per step.  A point enclosure
    (lo = hi) walks the same lockstep to the end of its orbit.
    """
    r, s = alpha.numerator, alpha.denominator
    if not 0 <= r <= s:
        raise DomainError(f"alpha must be in [0,1], got {alpha}")
    if isinstance(x, (int, Fraction)):
        A, B, C, D = m
        p, q = x.numerator, x.denominator
        return _rational_orbit(A * p + B * q, C * p + D * q, r, s)
    return _real_orbit(x, alpha, m)


def _rational_orbit(num: int, den: int, r: int, s: int):
    """_orbit's records of x_0 = num/den at alpha = r/s, in integers."""
    t = s - r
    while 0 < num < den:
        if not r and 2 * num > den:
            c = den - num
            k = (num - 1) // c   # the steps with num > c
            yield num, den, 2, -1, k
            num -= k * c
            den = num + c
        # step rule: num/den -> |den - a*num| / num with
        # a = floor(den/num + 1 - alpha); gcd(num, den) never changes
        a = (s * den + t * num) // (s * num)
        rem = den - a * num
        if rem < 0:
            yield num, den, a, -1, 1
            num, den = -rem, num
        else:   # eps = +1, also on a terminating step
            yield num, den, a, 1, 1
            num, den = rem, num


def _real_orbit(x: RealValue, alpha, m: tuple):
    """_orbit's records of a Surd or an AdaptiveReal."""
    if isinstance(x, Surd):
        walk, recs = _SurdWalk(x, alpha, m), []
        for j in walk:   # endless: a surd's orbit never reaches 0 or 1
            if j == len(recs):
                _P, _Q, a, eps = walk.states[j]
                recs.append((walk.double(j), 1, a, eps, 1))
            yield recs[j]
    for bits in _ladder("orbit step not certified at %d bits"):
        lo, hi = x.enclosure(bits)
        k = None   # the steps left of the last record pair; None before one
        # an end that leaves (0, 1) stops its walk and so the zip; both
        # rows stay positive over the enclosure (the new den row is the old
        # num row), so the pole of m_n stays outside it
        for (num0, den0, a, eps, k0), (num1, den1, a1, eps1, k1) in zip(
                _orbit(lo, alpha, m), _orbit(hi, alpha, m)):
            k = k0 if k0 < k1 else k1
            if a != a1 or eps != eps1:
                break
            if k == 1:
                f = num0 / den0
                if f != num1 / den1:
                    break
                yield f, 1, a, eps, 1
                k = 0
            else:   # runs on both ends, each with its fixed c
                c0, c1 = den0 - num0, den1 - num1
                fs = []
                while True:
                    f = num0 / den0
                    if f != num1 / den1:
                        break
                    fs.append(f)
                    k -= 1
                    if not k:
                        break
                    if len(fs) == _RUN_RECORD:
                        yield fs, 0, a, eps, _RUN_RECORD
                        fs = []
                    num0, den0 = num0 - c0, num0
                    num1, den1 = num1 - c1, num1
                if fs:   # the certified prefix of a run that parts
                    yield fs, 0, a, eps, len(fs)
            if k or k0 != k1:
                break   # an uncertified step, or one end's run goes on
        else:
            if lo == hi:
                return   # a point enclosure: the orbit of x itself ended
        if k is None:
            continue   # no record: m(lo) or m(hi) is outside (0, 1)
        if not k:
            # both ends hold the last certified step's state; step them
            num0, den0 = eps * (den0 - a * num0), num0
            num1, den1 = eps * (den1 - a * num1), num1
        # m_n [p; q] = [num; den] on both ends at the first uncertified
        # step n; lo != hi, so the 2x2 system has the one (integer) solution
        p0, q0 = lo.numerator, lo.denominator
        p1, q1 = hi.numerator, hi.denominator
        det = p0 * q1 - p1 * q0
        m = ((num0 * q1 - num1 * q0) // det, (num1 * p0 - num0 * p1) // det,
             (den0 * q1 - den1 * q0) // det, (den1 * p0 - den0 * p1) // det)


def _surd_state(x: Surd, m: tuple) -> tuple[int, int, int, int, int]:
    """(P, Q, D, k, d) with m(x) = (P + sqrt(D))/Q = (P + k sqrt(d))/Q and
    Q | D - P^2, for a seed matrix m = (A, B, 0, 1) with A = +-1."""
    A, B, _C, _D = m
    a, b, c, d = x.a, x.b, x.c, x.d
    # A x + B = (a' + A b sqrt(d))/c, a' = A a + B c, in lowest terms is
    # (P + k sqrt(d))/Q with k = |b| c, P = +-a' c and Q = +-c^2 (the sign
    # of A b), so that Q divides k^2 d - P^2 = c^2 (b^2 d - a'^2)
    sgn, k = (A if b > 0 else -A), abs(b) * c
    return sgn * (A * a + B * c) * c, sgn * c * c, k * k * d, k, d


class _SurdWalk:
    """The A_alpha orbit of x_0 = m(x) for a Surd x, walked lazily: iterating
    yields the index of each step x_n into ``states``, the distinct
    (P_n, Q_n, a_{n+1}, eps_{n+1}) with x_n = (P_n + sqrt(D))/Q_n, in
    first-visit order (_surd_state gives the seed).  A state fixes the rest
    of the orbit and by Lagrange's theorem some state comes back, to the
    index i: from there the walk replays range(i, len(states)) with no
    arithmetic.  A state is appended only when it is read, and a reader
    that stops reading is the only stop.  double(j) is state j's correctly
    rounded double, from the one root of D, and index(n) step n's state.

    1/x_n = (P1 + sqrt(D))/Q1 for P1 = -P_n and the integer
    Q1 = (D - P_n^2)/Q_n.  For alpha = r/s and X = s P1 + (s - r) Q1 the
    digit floor(1/x_n + 1 - alpha) is floor((X + s sqrt(D))/(s Q1)).
    s sqrt(D) lies strictly between R = isqrt(s^2 D) and R + 1, so the
    digit is (X + R) // (s Q1) for Q1 > 0 and (X + R + 1) // (s Q1) for
    Q1 < 0.  a and eps follow from (P, Q), so a state is its own key.
    """

    def __init__(self, x: Surd, alpha, m: tuple):
        self.alpha, self.states, self.i = alpha, [], None
        self.P, self.Q, D, self.k, self.d = _surd_state(x, m)
        self.D, self.root = D, math.isqrt(D << 128)

    def __iter__(self) -> Iterator[int]:
        # a new state's index goes out as (n,), and the period is replayed
        # off a C iterator, with no generator frame per step
        return chain.from_iterable(self._walk())

    def _walk(self):
        P, Q, D, states = self.P, self.Q, self.D, self.states
        r, s = self.alpha.numerator, self.alpha.denominator
        R = math.isqrt(s * s * D)
        seen = {}   # the states, as keys: a dict is leaner than a set
        for n in count():
            Q1 = (D - P * P) // Q
            X = (s - r) * Q1 - s * P + R
            a = (X if Q1 > 0 else X + 1) // (s * Q1)
            P1 = -P - a * Q1
            # eps is the sign of 1/x_n - a = (P1 + sqrt(D))/Q1
            eps = 1 if (P1 >= 0 or P1 * P1 < D) == (Q1 > 0) else -1
            seen[state := (P, Q, a, eps)] = None
            if len(seen) == n:   # x_n is a state the walk met before
                self.i = states.index(state)
                yield cycle(range(self.i, n))
            states.append(state)
            yield (n,)
            P, Q = P1, eps * Q1

    def index(self, n: int) -> int:
        """The index into states of step n, which the walk has read."""
        L = len(self.states)
        return n if n < L else self.i + (n - self.i) % (L - self.i)

    def double(self, j: int) -> float:
        P, Q, _a, _eps = self.states[j]
        return _surd_double(P, 1, Q, 0, self.D, self.root)


def _expansion(x: RealValue, alpha: Fraction, m: tuple, max_digits: int):
    """(steps, remainders, ended): the A_alpha orbit of x_0 = m(x), read off
    the kernel for every carrier, with no beta (_betas builds those).

    steps are the (a, eps) of at most max_digits steps and remainders x_0 ..
    x_D; ended says the orbit reached 0 (a terminating expansion) or 1 (the
    by-excess fixed point) within the budget.  A Fraction's record (num,
    den, a, eps, k) is k steps from x_n = num/den with c = den - num fixed.
    A Surd reads the walk of its (P, Q, D) states (_SurdWalk), one
    remainder per distinct state and its period replayed; an AdaptiveReal
    walks the certified kernel, k steps per record, x_n = m_n(x).
    """
    steps, remainders = [], []
    if isinstance(x, (int, Fraction)):
        for num, den, a, eps, k in _orbit(x, alpha, m):
            c = den - num
            # along a record den - num stays c and num falls by c per step
            run = range(num, num - k * c, -c)
            for n in run[:max_digits + 1 - len(steps)]:
                remainders.append(Fraction(n, n + c))
                steps.append((a, eps))
            if len(steps) > max_digits:
                break
    elif isinstance(x, Surd):
        walk = _SurdWalk(x, alpha, m)
        js = list(islice(walk, max_digits + 1))
        # Surd is immutable, so a replayed step shares its remainder
        recs = [(Surd._field(P, walk.k, Q, walk.d), (a, eps))
                for P, Q, a, eps in walk.states]
        remainders, steps = map(list, zip(*map(recs.__getitem__, js)))
    else:
        A, B, C, D = m
        for _num, _den, a, eps, k in _orbit(x, alpha, m):
            for _ in range(min(k, max_digits + 1 - len(steps))):
                remainders.append(x.mobius(A, B, C, D))
                steps.append((a, eps))
                A, B, C, D = eps * (C - a * A), eps * (D - a * B), A, B
            if len(steps) > max_digits:
                break
    ended = len(steps) <= max_digits
    if ended:   # x_D is exactly 0, or the fixed point 1 at alpha = 0
        remainders.append(Fraction(0) if alpha else Fraction(1))
    return steps[:max_digits], remainders, ended


def _betas(x: RealValue, eps0: int, n0: int, steps, remainders) -> list:
    """beta_n for each remainder x_n = m_n(x), m_0 = (eps0, -eps0 n0, 0, 1).
    A Fraction's x_n = num_n/den_n is in lowest terms and den_{n+1} = num_n,
    so beta_n = num_n/den_0 telescopes, den_0 that of x.  Else beta_n =
    A_n x + B_n, the num row of m_n walked over the digits: +-(q_n, -p_n)
    on x - n_0, so Lemma 1 with no product chain.  An ended orbit's 0 has
    beta 0; alpha = 0's fixed point 1 repeats the last beta (1 for D = 0).
    """
    if isinstance(x, (int, Fraction)):
        return [Fraction(r.numerator, x.denominator) for r in remainders]
    betas, A, B, C, D = [], eps0, -eps0 * n0, 0, 1
    for xn, (a, eps) in zip(remainders, chain(steps, [(0, 1)])):
        if isinstance(xn, Fraction):   # the ended entry, or the 1's pad
            betas.append(betas[-1] if xn and betas else xn)
        else:   # the den row of m_{n+1} is the num row of m_n
            betas.append(Surd._field(A * x.a + B * x.c, A * x.b, x.c, x.d)
                         if isinstance(x, Surd) else x.mobius(A, B, 0, 1))
            A, B, C, D = eps * (C - a * A), eps * (D - a * B), A, B
    return betas


def _convergents(steps, eps0: int, one=1) -> tuple[list, list]:
    """p_n = a_n p_{n-1} + eps_{n-1} p_{n-2} (and q_n) from p_{-1}, q_{-1}
    = 1, 0 and p_0, q_0 = 0, 1, in the number type of ``one``."""
    p_seq, q_seq = [0 * one], [one]
    pm1, qm1, eps_prev = one, 0 * one, eps0
    for a, eps in steps:
        p_seq.append(a * p_seq[-1] + eps_prev * pm1)
        q_seq.append(a * q_seq[-1] + eps_prev * qm1)
        pm1, qm1, eps_prev = p_seq[-2], q_seq[-2], eps
    return p_seq, q_seq


def _convergent_text(steps, eps0: int) -> tuple[list, list]:
    """The convergents as Decimals for the writers, exact in a local context
    (Inexact trapped): str of each is linear in its digits at any size."""
    with decimal.localcontext(decimal.Context(
            prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
            traps=[decimal.Inexact])) as ctx:
        return _convergents(steps, eps0, ctx.create_decimal(1))


def alpha_step(x: RealValue, alpha) -> tuple[AlphaDigit, RealValue]:
    """One application of A_alpha; returns the digit and the next remainder."""
    alpha = Fraction(alpha)
    abar = alpha_bar(alpha)
    # the closed right endpoint is reachable: reducing x = n + alpha with
    # alpha < 1/2 yields |x0| = 1 - alpha exactly
    if compare(x, Fraction(0)) <= 0 or compare(x, abar) > 0:
        raise DomainError(f"x must lie in (0, {abar}], got {x}")
    # a = floor(1/x + 1 - alpha) and eps the sign of 1/x - a, +1 with the
    # next remainder 0 on a terminating step
    y = recip(x)
    a = floor_shift(y, alpha)
    diff = y - a
    eps = sign_val(diff)
    if eps == 0:
        return AlphaDigit(a, 1), Fraction(0)
    if isinstance(x, AdaptiveReal):
        return AlphaDigit(a, eps), x.mobius(-eps * a, eps, 1, 0)
    return AlphaDigit(a, eps), abs(diff)


def alpha_expand(x: RealValue, alpha, max_digits: int) -> AlphaExpansion:
    """Full expansion: reduce, then walk the A_alpha orbit up to max_digits.

    Stops early when a remainder hits zero (rational input); at alpha = 0
    the fixed point 1 repeats the digit 2 with sign -1 up to the budget.
    Convergents follow p_n = a_n p_{n-1} + eps_{n-1} p_{n-2} from the
    identity seed.  Every carrier walks the orbit kernel; exp.betas is
    built on first read, cached and can be overridden (see _betas).
    """
    if max_digits < 0:
        raise ValueError("max_digits must be >= 0")
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise DomainError(f"alpha must be in [0,1], got {alpha}")
    n0, eps0, m = _alpha_seed(x, alpha)
    steps, remainders, ended = _expansion(x, alpha, m, max_digits)
    if ended and alpha == 0:
        # A_0(1) = 1 with the digit 2 and the sign -1
        pad = max_digits - len(steps)
        steps += [(2, -1)] * pad
        remainders += [Fraction(1)] * pad
        ended = False
    p_seq, q_seq = _convergents(steps, eps0)
    return AlphaExpansion(alpha, x, n0, eps0,
                          list(map(AlphaDigit._make, steps)),
                          remainders, p_seq, q_seq, ended)


@dataclass
class BetaCheckReport:
    lemma1_ok: list[bool]          # beta_n == |q_n x' - p_n|, n = 0..D
    sandwich_ok: list[Optional[bool]]  # 1/(1+a) < beta_n q_{n+1} < 1/a
    all_ok: bool


def beta_check(exp: AlphaExpansion) -> BetaCheckReport:
    """Verify beta_n = |q_n x - p_n| and the beta*q sandwich, exactly."""
    if not (is_exact(exp.x) and all(is_exact(r) for r in exp.remainders)):
        raise ExactnessUnavailable("beta_check needs an exact expansion")
    xr = exp.reduced()
    alpha = exp.alpha
    lemma1, sandwich = [], []
    for n in range(len(exp.betas)):
        lhs = exp.betas[n]
        rhs = abs(xr * exp.q_seq[n] - exp.p_seq[n])
        lemma1.append(compare(lhs, rhs) == 0)
        ok: Optional[bool] = None
        if alpha > 0 and n + 1 < len(exp.q_seq):
            terminal = (n + 1 < len(exp.remainders)
                        and is_exact(exp.remainders[n + 1])
                        and sign_val(exp.remainders[n + 1]) == 0)
            if not terminal:
                prod = lhs * exp.q_seq[n + 1]
                ok = (compare(Fraction(1, 1) / (1 + alpha), prod) < 0
                      and compare(prod, 1 / alpha) < 0)
        sandwich.append(ok)
    all_ok = all(lemma1) and all(s is not False for s in sandwich)
    return BetaCheckReport(lemma1, sandwich, all_ok)


def _rho_power(alpha) -> tuple[int, int, int, int, int]:
    """(a, b, c, e, k) with rho^k = (a + b sqrt(e))/c for rho_alpha(alpha):
    k = 2 below sqrt(2) - 1, where rho^2 = 1 - 2 alpha is rational, else
    k = 1 with the silver rho up to (sqrt(5) - 1)/2 and the golden above."""
    if not isinstance(alpha, (int, Fraction)):
        alpha = Fraction(alpha)
    r, s = alpha.numerator, alpha.denominator
    if r <= 0:
        raise DomainError("no geometric decay at alpha = 0 "
                          "(indifferent fixed point)")
    if r > s:
        raise DomainError(f"alpha must be in (0,1], got {alpha}")
    if (2 * r + s) ** 2 > 5 * s * s:   # alpha > (sqrt(5) - 1)/2
        return -1, 1, 2, 5, 1
    if (r + s) ** 2 >= 2 * s * s:      # alpha >= sqrt(2) - 1
        return -1, 1, 1, 2, 1
    return s - 2 * r, 0, s, 1, 2


def rho_alpha(alpha) -> RealValue:
    """Geometric decay rate of beta_n, by regime of alpha.

    Below sqrt(2) - 1 this is sqrt(1 - 2 alpha): for alpha = r/s a Surd
    over the radicand (s - 2r) s, or a rational.
    """
    a, b, c, e, k = _rho_power(alpha)
    return Surd._field(a, b, c, e) if k == 1 else Surd.sqrt_of(Fraction(a, c))


def decay_check(exp: AlphaExpansion, max_index: int = 50) -> bool:
    """beta_n <= abar rho^n and 1/q_{n+1} < (1+alpha) abar rho^n, taken to
    the power k = 2 below alpha = sqrt(2) - 1, where rho^2 is rational.
    abar^k rho^(kn) is kept as (A + B sqrt(e))/C; an exact beta is decided
    in integers, an AdaptiveReal by compare (<= when unseparated)."""
    ra, rb, rc, e, k = _rho_power(exp.alpha)
    r, s = exp.alpha.numerator, exp.alpha.denominator
    A, B, C, w = max(r, s - r) ** k, 0, s ** k, (r + s) ** k
    for n, beta in enumerate(exp.betas[:max(0, max_index + 1)]):
        if isinstance(beta, AdaptiveReal):
            bound = Surd._field(A, B, C, e)
            with suppress(NeedsPrecision):
                if compare(beta, Surd.sqrt_of(bound) if k == 2 else bound) > 0:
                    return False
        elif _power_cmp(beta, k, A, B, C, e) > 0:
            return False
        if n + 1 < len(exp.q_seq):   # 1/q^k >= (w/s^k) bound fails
            Q = exp.q_seq[n + 1] ** k * w
            if _surd_sign(C * s ** k - Q * A, -Q * B, e) >= 0:
                return False
        A, B, C = A * ra + B * rb * e, A * rb + B * ra, C * rc
    return True


def reconstruction_check(exp: AlphaExpansion) -> bool:
    """x - n0 = (p_n + eps_n p_{n-1} x_n)/(q_n + eps_n q_{n-1} x_n), all n."""
    if not is_exact(exp.x):
        raise ExactnessUnavailable("reconstruction check needs exact input")
    xr = exp.reduced()
    eps_stream = [exp.eps0] + [d.eps for d in exp.digits]
    pm1, qm1 = 1, 0
    for n in range(len(exp.remainders)):
        eps = eps_stream[n] if n < len(eps_stream) else 1
        xn = exp.remainders[n]
        num = exp.p_seq[n] + xn * (eps * pm1)
        den = exp.q_seq[n] + xn * (eps * qm1)
        if compare(num, xr * den) != 0:
            return False
        pm1, qm1 = exp.p_seq[n], exp.q_seq[n]
    return True

