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

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import (DomainError, ExactnessUnavailable, NeedsPrecision,
                    RealValue, Surd, abs_val, compare, floor_shift, is_exact,
                    recip, sign_val, sub_int, to_float)


def alpha_bar(alpha) -> Fraction:
    """Right endpoint of the expansion interval: max(alpha, 1 - alpha)."""
    alpha = Fraction(alpha)
    return max(alpha, 1 - alpha)


@dataclass(frozen=True)
class AlphaParams:
    alpha: Fraction

    def __post_init__(self):
        a = Fraction(self.alpha)
        if not 0 <= a <= 1:
            raise DomainError(f"alpha must be in [0,1], got {a}")
        object.__setattr__(self, "alpha", a)

    @property
    def abar(self) -> Fraction:
        return alpha_bar(self.alpha)


@dataclass(frozen=True)
class AlphaDigit:
    a: int
    eps: int  # sign of 1/x - a; +1 by convention on a terminating step

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"digit must be >= 1, got {self.a}")
        if self.eps not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {self.eps}")


@dataclass(frozen=True)
class ConvergentPair:
    p_prev: int
    q_prev: int
    p: int
    q: int
    det: int  # p_prev*q - q_prev*p, always +-1


@dataclass
class AlphaExpansion:
    """Digits, remainders, convergents and beta products of one input."""

    params: AlphaParams
    x: RealValue
    integer_part: int
    eps0: int
    digits: list[AlphaDigit]
    remainders: list  # x_0 .. x_D
    p_seq: list[int]  # p_0 .. p_D
    q_seq: list[int]  # q_0 .. q_D
    betas: list       # beta_0 .. beta_D
    terminated: bool

    @property
    def alpha(self) -> Fraction:
        return self.params.alpha

    def reduced(self) -> RealValue:
        """x - integer_part, the signed value the convergents approximate."""
        return sub_int(self.x, self.integer_part)

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

    def to_json(self) -> str:
        return json.dumps({
            "alpha": str(self.alpha),
            "x": str(self.x),
            "integer_part": self.integer_part,
            "digits": [{"a": d.a, "eps": d.eps} for d in self.digits],
            "convergents": [{"p": p, "q": q}
                            for p, q in zip(self.p_seq, self.q_seq)],
            "terminated": self.terminated,
        })

    def to_csv_rows(self) -> list[list]:
        rows = [["n", "a", "eps", "p", "q", "beta"]]
        for n, d in enumerate(self.digits, start=1):
            rows.append([n, d.a, d.eps, self.p_seq[n], self.q_seq[n],
                         to_float(self.betas[n])])
        return rows


def alpha_reduce(x: RealValue, alpha) -> tuple[int, RealValue]:
    """Reduce an arbitrary real into [0, abar]: (floor(x+1-alpha), |x - it|)."""
    n = floor_shift(x, alpha)
    return n, abs_val(sub_int(x, n))


def alpha_step(x: RealValue, alpha) -> tuple[AlphaDigit, RealValue]:
    """One application of A_alpha; returns the digit and the next remainder."""
    alpha = Fraction(alpha)
    abar = alpha_bar(alpha)
    # the closed right endpoint is reachable: reducing x = n + alpha with
    # alpha < 1/2 yields |x0| = 1 - alpha exactly
    if compare(x, Fraction(0)) <= 0 or compare(x, abar) > 0:
        raise DomainError(f"x must lie in (0, {abar}], got {x}")
    y = recip(x)
    a = floor_shift(y, alpha)
    diff = sub_int(y, a)
    s = sign_val(diff)
    if s == 0:
        return AlphaDigit(a, 1), Fraction(0)
    return AlphaDigit(a, s), abs_val(diff)


def alpha_expand(x: RealValue, alpha, max_digits: int) -> AlphaExpansion:
    """Full expansion: reduce, then iterate alpha_step up to max_digits.

    Stops early when a remainder hits zero (rational input).  Convergents
    follow p_n = a_n p_{n-1} + eps_{n-1} p_{n-2} from the identity seed.
    """
    if max_digits < 0:
        raise ValueError("max_digits must be >= 0")
    params = AlphaParams(Fraction(alpha))
    n0, x0 = alpha_reduce(x, params.alpha)
    eps0 = sign_val(sub_int(x, n0))
    if eps0 == 0:
        eps0 = 1  # integer input: empty expansion, convention +1

    digits: list[AlphaDigit] = []
    remainders = [x0]
    p_seq, q_seq = [0], [1]
    pm1, qm1 = 1, 0  # p_{-1}, q_{-1}
    betas = [x0]
    terminated = False

    if sign_val(x0) == 0:
        terminated = True
    cur = x0
    eps_prev = eps0
    while len(digits) < max_digits and not terminated:
        digit, nxt = alpha_step(cur, params.alpha)
        digits.append(digit)
        p_new = digit.a * p_seq[-1] + eps_prev * pm1
        q_new = digit.a * q_seq[-1] + eps_prev * qm1
        pm1, qm1 = p_seq[-1], q_seq[-1]
        p_seq.append(p_new)
        q_seq.append(q_new)
        remainders.append(nxt)
        betas.append(nxt * betas[-1])
        eps_prev = digit.eps
        if is_exact(nxt) and sign_val(nxt) == 0:
            terminated = True
        cur = nxt
    return AlphaExpansion(params, x, n0, eps0, digits, remainders,
                          p_seq, q_seq, betas, terminated)


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
        rhs = abs_val(xr * exp.q_seq[n] - exp.p_seq[n])
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


_GOLDEN = Surd(-1, 1, 2, 5)   # (sqrt(5)-1)/2
_SILVER = Surd(-1, 1, 1, 2)   # sqrt(2)-1


def rho_alpha(alpha) -> RealValue:
    """Geometric decay rate of beta_n, by regime of alpha."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise DomainError("no geometric decay at alpha = 0 "
                          "(indifferent fixed point)")
    if alpha > 1:
        raise DomainError(f"alpha must be in (0,1], got {alpha}")
    if _GOLDEN < alpha:
        return _GOLDEN
    if _SILVER <= alpha:
        return _SILVER
    return Surd.sqrt_of(1 - 2 * alpha)


def decay_check(exp: AlphaExpansion, max_index: int = 50) -> bool:
    """beta_n <= abar * rho^n and 1/q_{n+1} < (1+alpha) abar rho^n."""
    alpha = exp.alpha
    abar = exp.params.abar
    rho = rho_alpha(alpha)
    bound: RealValue = Fraction(abar)
    for n in range(min(max_index + 1, len(exp.betas))):
        try:
            if compare(exp.betas[n], bound) > 0:
                return False
        except NeedsPrecision:
            pass  # unseparated at the cap: consistent with <=
        if n + 1 < len(exp.q_seq):
            if compare(Fraction(1, exp.q_seq[n + 1]), bound * (1 + alpha)) >= 0:
                return False
        bound = rho * bound
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


def legendre_filter(x: RealValue, exp: AlphaExpansion) -> list[int]:
    """Indices n whose convergent passes |x' - p/q| < 1/(2 q^2).

    Convergents passing this half-Legendre test are guaranteed to also be
    regular (alpha=1) convergents of x'.
    """
    if not is_exact(x):
        raise ExactnessUnavailable("legendre_filter needs exact input")
    xr = exp.reduced()
    out = []
    for n in range(len(exp.p_seq)):
        q = exp.q_seq[n]
        err = abs_val(xr - Fraction(exp.p_seq[n], q))
        if compare(err, Fraction(1, 2 * q * q)) < 0:
            out.append(n)
    return out
