"""By-excess continued fractions and the digit dictionary.

The by-excess map on (0, 1] is

    A0(x) = floor(1/x + 1) - 1/x

with digits b_n = floor(1/x_{n-1} + 1) >= 2 and the minus expansion
x = 1/b_1 - 1/b_2 - ...  With this convention A0(1/n) = 1 for every n, so a
rational orbit reaches the fixed point 1 and continues with an infinite run
of 2's; that tail is kept symbolic (``reached_one``), never materialized.

Runs of digit 2 encode the regular continued fraction digits: the
conversions here implement the classical two-way dictionary between the
two expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import zip_longest
from typing import Iterator, Sequence

from .alpha import (_beta_float, _betas, _convergent_text, _convergents,
                    _expansion, alpha_step)
from .exact import DomainError, RealValue, _json_chunks, floor_shift, sign_val


class MalformedStream(ValueError):
    """Digit stream violates the continued fraction digit constraints."""


@dataclass
class MinusExpansion:
    """Finite prefix of a by-excess expansion, with a symbolic 2-tail;
    pstar, qstar and betastars are built on first read (_convergents,
    _betas) and cached, and assigning one overrides it."""

    x: RealValue
    x0: RealValue
    digits: list[int]       # b_1 .. b_D, all >= 2
    remainders: list        # x_0 .. x_D
    reached_one: bool       # remainder hit 1: all further digits are 2

    @cached_property
    def _star(self) -> tuple[list[int], list[int]]:
        # every sign is -1, so from eps_0 = +1 this is the p* recurrence
        return _convergents([(b, -1) for b in self.digits], 1)

    @cached_property
    def pstar(self) -> list[int]:   # p*_0 .. p*_D
        return self._star[0]

    @cached_property
    def qstar(self) -> list[int]:   # q*_0 .. q*_D
        return self._star[1]

    @cached_property
    def betastars(self) -> list:   # beta*_0 .. beta*_D (= x_0...x_n)
        return _betas(self.x0, 1, 0, [(b, -1) for b in self.digits],
                      self.remainders)

    def to_csv_rows(self) -> list[list]:
        """Header and one row per digit; p* and q* are exact Decimals."""
        rows = [["n", "b", "p_star", "q_star", "beta_star", "in_I_star"]]
        signs = [-1] * len(self.digits)
        pstar, qstar = _convergent_text([(b, -1) for b in self.digits], 1)
        for n in range(len(self.digits)):
            rows.append([n, self.digits[n], pstar[n], qstar[n],
                         _beta_float(lambda n: self.betastars[n],
                                     self.remainders, self.qstar, signs, n),
                         int(self.digits[n] == 2)])
        return rows

    def to_json_chunks(self) -> Iterator[str]:
        """The JSON text, one convergent per chunk."""
        pstar, qstar = _convergent_text([(b, -1) for b in self.digits], 1)
        return _json_chunks({
            "x": str(self.x),
            "digits": self.digits,
            "tail2": self.reached_one,
            "convergents": None,
        }, "convergents", zip(pstar, qstar))


def minus_step(x: RealValue) -> tuple[int, RealValue]:
    """One application of A0 on (0, 1]: digit b = floor(1/x + 1), next = b - 1/x.

    This is ``alpha_step`` at alpha = 0.  At x = 1/n it gives b = n + 1 and
    next = 1 (the convention that keeps the expansion total on the
    rationals); x = 1 is the fixed point b = 2.
    """
    digit, nxt = alpha_step(x, 0)
    return digit.a, nxt


def _reduce_mod1(x: RealValue) -> RealValue:
    """Into (0, 1]: x - floor(x), integers mapped to 1."""
    x0 = x - floor_shift(x, Fraction(1))
    if sign_val(x0) == 0:
        return Fraction(1)
    return x0


def minus_expand(x: RealValue, max_digits: int) -> MinusExpansion:
    """The alpha = 0 walk of x_0 = x - floor(x); stops at the remainder 1
    or the digit budget.

    The input is reduced mod 1 into (0, 1] first (integers map to 1).
    Convergents satisfy p*_n = b_n p*_{n-1} - p*_{n-2} with seeds fixed by
    p*_1/q*_1 = 1/b_1 and unimodularity p*_n q*_{n-1} - p*_{n-1} q*_n = 1.
    Every carrier walks the orbit kernel of x_0 (see ``alpha_expand``);
    the convergents and betastars are built on first read, cached and can
    be overridden.
    """
    if max_digits < 0:
        raise ValueError("max_digits must be >= 0")
    x0 = _reduce_mod1(x)
    steps, remainders, reached_one = _expansion(
        x0, Fraction(0), (1, 0, 0, 1), max_digits)
    return MinusExpansion(x, x0, [b for b, _eps in steps], remainders,
                          reached_one)


def _canonical_fixup(a: list[int]) -> list[int]:
    # finite regular CF: fold a trailing 1 into the previous digit
    if len(a) >= 2 and a[-1] == 1:
        return a[:-2] + [a[-2] + 1]
    return a


def minus_to_regular(digits: Sequence[int],
                     tail_of_twos: bool = False) -> tuple[list[int], bool]:
    """Translate by-excess digits into regular continued fraction digits.

    The stream is read as b_1, then each run of r 2's with the digit B > 2
    that closes it: a_1 = b_1 - 1, then r + 1, B - 2 for each closed run.
    Returns (a_digits, terminated): a trailing open run of 2's marks a
    rational input, whose regular expansion terminates (in canonical form,
    last digit >= 2).  For a plain prefix of an infinite stream, only
    digits derivable from closed runs are emitted, and none from 2's alone.
    """
    digits = list(digits)
    if not digits:
        raise MalformedStream("empty by-excess stream")
    for b in digits:
        if b < 2:
            raise MalformedStream(f"by-excess digits must be >= 2, got {b}")
    if max(digits) == 2:
        if tail_of_twos:
            raise MalformedStream("by-excess stream of 2's alone does not "
                                  "encode x in (0,1)")
        return [], False
    out, run = [digits[0] - 1], 0
    for b in digits[1:]:
        if b == 2:
            run += 1
        else:
            out += [run + 1, b - 2]
            run = 0
    if tail_of_twos:
        return _canonical_fixup(out), True
    return out, False


def regular_to_minus(a: Sequence[int],
                     terminated: bool = True) -> tuple[list[int], bool]:
    """Inverse dictionary: regular digits to by-excess digits.

    A finite (terminated) regular expansion, canonical form with last
    digit >= 2, maps to a by-excess stream ending in an infinite run of
    2's, reported as (digits, True).  Prefixes of infinite expansions map
    to the derivable by-excess prefix, reported as (digits, False).
    """
    big, twos = _minus_runs(a, terminated)
    b: list[int] = []
    for d, n in zip_longest(big, twos, fillvalue=0):
        b += [d] + [2] * n
    return b, terminated


def _minus_runs(a: Sequence[int],
                terminated: bool) -> tuple[list[int], list[int]]:
    """(big, twos) of regular_to_minus: its by-excess stream is big[i],
    then twos[i] digits 2 where there is one, for each i in turn.  From
    [a_1, a_2, a_3, ...] that is a_1 + 1, a_2 - 1 2's, a_3 + 2, a_4 - 1
    2's, a_5 + 2, ...; a run is a regular digit, never written out here."""
    a = list(a)
    if not a:
        raise MalformedStream("empty regular stream")
    for d in a:
        if d < 1:
            raise MalformedStream(f"regular digits must be >= 1, got {d}")
    if terminated and len(a) > 1 and a[-1] == 1:
        raise MalformedStream("finite regular expansion must end with >= 2")
    if a == [1]:
        raise MalformedStream("regular stream [1] does not encode x in (0,1)")
    if terminated and len(a) % 2 == 0:
        # undo canonical form so the stream ends on a big digit
        a = a[:-1] + [a[-1] - 1, 1]
    return [a[0] + 1] + [d + 2 for d in a[2::2]], [d - 1 for d in a[1::2]]


def complement_regular(a: Sequence[int]) -> list[int]:
    """Regular digits of 1 - x from those of x in (0, 1/2): prepend 1, a1 - 1.

    The boundary stream [2] (x = 1/2) maps to the formal [1, 1].
    """
    a = list(a)
    if not a:
        raise MalformedStream("empty regular stream")
    if a[0] < 2:
        raise DomainError("complement needs a_1 >= 2 (x < 1/2)")
    return [1, a[0] - 1] + a[1:]
