"""Exact and adaptive-precision number carriers.

Three carriers drive the continued fraction machinery:

* ``Fraction`` (stdlib) for rationals,
* ``Surd`` for quadratic irrationals (a + b*sqrt(d))/c,
* ``AdaptiveReal`` for values known only through a refinable certified
  enclosure.

All values are immutable; operations are pure.  Anything that cannot be
decided exactly is resolved by refining an enclosure up to a precision cap,
past which ``NeedsPrecision`` is raised and the caller decides.
"""

from __future__ import annotations

import decimal
import json
import math
import re
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from fractions import Fraction
from typing import Callable, Iterator, Union

DEFAULT_BITS = 128
PRECISION_CAP = 1 << 16

# (start bits, cap) of every refinement loop, set per thread and task
_PRECISION = ContextVar("precision", default=(DEFAULT_BITS, PRECISION_CAP))


@contextmanager
def precision(bits: int = DEFAULT_BITS, cap: int = PRECISION_CAP):
    """Start bits and cap of every refinement loop in the with block."""
    if bits < 1:
        # the refinement loops double the bits; from 0 they never grow
        raise ValueError(f"start bits must be >= 1, got {bits}")
    token = _PRECISION.set((bits, cap))
    try:
        yield
    finally:
        _PRECISION.reset(token)


def _ladder(what: str, start: int = 1):
    """The bits of a refinement loop, doubling from the scope's start (or
    start, if larger) to the cap; one more past it is NeedsPrecision."""
    bits, cap = _PRECISION.get()
    bits = max(bits, start)
    while True:
        yield bits
        if bits >= cap:
            raise NeedsPrecision(what % bits)
        bits *= 2


class NeedsPrecision(Exception):
    """An adaptive value could not be certified at the precision cap."""


class DomainError(ValueError):
    """Input outside the domain of the requested map."""


class NotASurd(ValueError):
    """Surd construction collapsed to a rational."""


class InvalidRadicand(ValueError):
    """Radicand of a surd must be a positive integer."""


class ExactnessUnavailable(TypeError):
    """An exact-only check was requested on an adaptive value."""


def _sign_int(n) -> int:
    return (n > 0) - (n < 0)


def _surd_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for d >= 0."""
    if b == 0:
        return _sign_int(a)
    if a >= 0 and b > 0:
        return 1
    if a <= 0 and b < 0:
        return -1
    # a and b have opposite signs; compare a^2 with b^2 d.
    t = a * a - b * b * d
    if a > 0:
        return _sign_int(t)
    return -_sign_int(t)


def _power_cmp(v, k: int, A: int, B: int, C: int, e: int) -> int:
    """Sign of v^k - (A + B*sqrt(e))/C for a rational or a Surd v, k = 1 or
    2 and C > 0, in integers.  With v^k = (a + b sqrt(d))/c it is the sign
    of u + w for u = aC - cA + bC sqrt(d) and w = -cB sqrt(e), squared once
    where their signs differ."""
    a, b, c, d = ((v.a, v.b, v.c, v.d) if isinstance(v, Surd)
                  else (v.numerator, 0, v.denominator, 1))
    if k == 2:
        a, b, c = a * a + b * b * d, 2 * a * b, c * c
    x, y, z = a * C - c * A, b * C, -c * B
    if not z:
        return _surd_sign(x, y, d)
    if not y:
        return _surd_sign(x, z, e)
    su, sw = _surd_sign(x, y, d), _sign_int(z)
    if su * sw >= 0:
        return su or sw
    # |u| - |w| has the sign of u^2 - w^2 = x^2 + y^2 d - z^2 e + 2xy sqrt(d)
    return su * _surd_sign(x * x + y * y * d - z * z * e, 2 * x * y, d)


class Surd:
    """Quadratic surd (a + b*sqrt(d)) / c with c > 0, gcd(a, b, c) = 1,
    b != 0 and d a positive non-square, kept as given.

    Radicands d and d' span one field Q(sqrt(d)) when d d' is a square;
    arithmetic rewrites the other operand over this radicand and rejects
    operands from another field.  A result that is rational is returned
    as a ``Fraction``.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if c == 0:
            raise ZeroDivisionError("surd denominator is zero")
        if d <= 0:
            raise InvalidRadicand(f"radicand must be positive, got {d}")
        if b == 0 or math.isqrt(d) ** 2 == d:
            raise NotASurd(f"({a}+{b}*sqrt({d}))/{c} is rational; "
                           "use Fraction")
        self._set(a, b, c, d)

    def _set(self, a: int, b: int, c: int, d: int) -> None:
        if c < 0:
            a, b, c = -a, -b, -c
        # c first: it is small where a and b can be long (a beta of a deep
        # orbit), and gcd stops at the first argument that brings it to 1
        g = math.gcd(c, a, b)
        # the slot descriptors' setters, bound once below, store past the
        # __setattr__ guard with no method-wrapper built per call
        _SET_A(self, a // g)
        _SET_B(self, b // g)
        _SET_C(self, c // g)
        _SET_D(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    @classmethod
    def _field(cls, a: int, b: int, c: int, d: int) -> Union["Surd", Fraction]:
        """(a + b*sqrt(d))/c for a d known to be no square, as a Surd, or
        a Fraction when b = 0; unlike the constructor it does not check
        d."""
        if b == 0:
            return Fraction(a, c)
        out = cls.__new__(cls)
        out._set(a, b, c, d)
        return out

    @classmethod
    def sqrt_of(cls, value: Fraction) -> Union["Surd", Fraction]:
        """Exact square root of a positive rational, as surd or rational."""
        value = Fraction(value)
        if value <= 0:
            raise InvalidRadicand(f"radicand must be positive, got {value}")
        # sqrt(p/q) = sqrt(p*q)/q
        pq, q = value.numerator * value.denominator, value.denominator
        r = math.isqrt(pq)
        if r * r == pq:
            return Fraction(r, q)
        return cls._field(0, 1, q, pq)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        """other's (a, b, c) over this radicand d, for a rational or a surd
        of the same field, else None: for d d' = r^2, sqrt(d') is
        (r/d) sqrt(d)."""
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        if not isinstance(other, Surd):
            return None
        if other.d == self.d:
            return other.a, other.b, other.c
        dd = self.d * other.d
        r = math.isqrt(dd)
        if r * r != dd:
            return None
        return other.a * self.d, other.b * r, other.c * self.d

    def __neg__(self):
        return self._field(-self.a, -self.b, self.c, self.d)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c = o
        return self._field(self.a * c + a * self.c, self.b * c + b * self.c,
                           self.c * c, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Surd)):
            return self.__add__(-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c = o
        return self._field(self.a * a + self.b * b * self.d,
                           self.a * b + self.b * a, self.c * c, self.d)

    __rmul__ = __mul__

    def recip(self) -> "Surd":
        """Exact reciprocal via the conjugate."""
        norm = self.a * self.a - self.b * self.b * self.d
        return self._field(self.a * self.c, -self.b * self.c, norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, Surd):
            return self.__mul__(other.recip())
        if isinstance(other, (int, Fraction)):
            return self.__mul__(1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.recip().__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            return self.recip() ** (-n)
        out: Union[Surd, Fraction] = Fraction(1)
        base: Union[Surd, Fraction] = self
        while n:
            if n & 1:
                out = base * out if isinstance(base, Surd) else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- order and conversion --------------------------------------------

    def sign(self) -> int:
        return _surd_sign(self.a, self.b, self.d)

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def _cmp(self, other) -> int:
        """Exact comparison against a rational or a same-field surd."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare {self} with {other!r} exactly; "
                            "use compare()")
        a, b, c = o
        # self - other has the positive denominator c self.c
        return _surd_sign(self.a * c - a * self.c, self.b * c - b * self.c,
                          self.d)

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, Surd)):
            return NotImplemented
        o = self._coerce(other)
        if o is None:
            return False   # a surd of another field
        a, b, c = o
        # sqrt(d) is irrational, so equal values have proportional parts
        return self.a * c == a * self.c and self.b * c == b * self.c

    def __hash__(self):
        # equal values over d and over k^2 d share their correctly
        # rounded double
        return hash(float(self))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Certified enclosure of width <= 2**(1-bits).  sqrt(d) 2^t lies in
        [s, s + 1] for s = isqrt(d 4^t), so the width is |b|/c 2^-t: t is
        bits, with guard bits only where |b| > 2c."""
        a, b, c = self.a, self.b, self.c
        t = bits + max(((abs(b) - 1) // c).bit_length() - 1, 0)
        n = (a << t) + b * math.isqrt(self.d << 2 * t)
        return Fraction(min(n, n + b), c << t), Fraction(max(n, n + b), c << t)

    def __float__(self):
        # (+-a + sqrt(b^2 d))/(+-c), the sign of b: b r would cancel with a
        sgn = 1 if self.b > 0 else -1
        return _surd_double(sgn * self.a, 1, sgn * self.c, 0,
                            self.b * self.b * self.d)

    def __floor__(self) -> int:
        return floor_shift(self, 1)

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        return f"({self.a}+{self.b}*sqrt({self.d}))/{self.c}"


class AdaptiveReal:
    """A real defined by a rule producing certified enclosures.

    ``generator(bits)`` must return rational bounds (lo, hi) with
    lo <= value <= hi and hi - lo <= 2**(1-bits).  Derived values are
    Moebius images of another value (``mobius``); refinement is stateless
    apart from a small cache.
    """

    __slots__ = ("generator", "_cache")

    def __init__(self, generator: Callable[[int], tuple[Fraction, Fraction]]):
        self.generator = generator
        self._cache: dict[int, tuple[Fraction, Fraction]] = {}

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        got = self._cache.get(bits)
        if got is None:
            got = self.generator(bits)
            self._cache[bits] = got
        return got

    @classmethod
    def from_exact(cls, value) -> "AdaptiveReal":
        return cls(lambda bits: enclosure(value, bits))

    def mobius(self, a: int, b: int, c: int, d: int) -> "AdaptiveReal":
        """(a*x + b)/(c*x + d) for integers a, b, c, d, certified.

        Monotone on an enclosure that keeps c*x + d off zero, so the images
        of its endpoints enclose the value; the precision doubles until they
        are 2**(1-bits) apart.
        """
        def gen(bits):
            for p in _ladder("Moebius image not certified at %d bits", bits):
                lo, hi = self.enclosure(p)
                den_lo, den_hi = c * lo + d, c * hi + d
                if den_lo * den_hi > 0:
                    ends = sorted(((a * lo + b) / den_lo,
                                   (a * hi + b) / den_hi))
                    if ends[1] - ends[0] <= Fraction(2) ** (1 - bits):
                        return ends[0], ends[1]
        return AdaptiveReal(gen)

    def __neg__(self):
        return self.mobius(-1, 0, 0, 1)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            return self.mobius(r.denominator, r.numerator, 0, r.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__add__(-Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __float__(self):
        return _nearest_float(self)

    def __repr__(self):
        with suppress(NeedsPrecision):
            return f"AdaptiveReal(~{float(self)!r})"
        return "AdaptiveReal(~?, no double certified at the cap)"


RealValue = Union[Fraction, Surd, AdaptiveReal]
_SET_A, _SET_B, _SET_C, _SET_D = (Surd.a.__set__, Surd.b.__set__,
                                  Surd.c.__set__, Surd.d.__set__)


def _surd_double(a: int, b: int, c: int, e: int, d: int, root=None) -> float:
    """The correctly rounded double of (a + b sqrt(d))/(c + e sqrt(d)) for
    a non-square d and a e != b c.  It is monotone in sqrt(d) 2^t, which
    lies strictly between r = isqrt(d 4^t) and r + 1; so once the bracket's
    denominators m = c 2^t + e r and m + e have one sign and its ends n/m
    and (n + b)/(m + e), n = a 2^t + b r, give one double (int/int rounds
    correctly, and rounding is monotone) that is the value's.  The value is
    irrational, no rounding midpoint, so doubling t ends the loop without a
    cap.  An orbit of fixed d passes the t = 64 root, isqrt(d 4^64)."""
    t, root = 64, root or math.isqrt(d << 128)
    while True:
        n, m = (a << t) + b * root, (c << t) + e * root
        if m > 0 < m + e or m < 0 > m + e:   # one sign, with no product
            f = n / m
            if f == (n + b) / (m + e):
                return f
        t *= 2
        root = math.isqrt(d << 2 * t)


def _nearest_float(x: AdaptiveReal) -> float:
    """The correctly rounded double of x: the precision climbs the _ladder
    until both ends of an enclosure round to the same double (rounding is
    monotone), NeedsPrecision past the cap."""
    for bits in _ladder("double not certified at %d bits"):
        lo, hi = x.enclosure(bits)
        f = float(lo)
        if f == float(hi):
            return f


# -- generic operations ----------------------------------------------------

def enclosure(x: RealValue, bits: int) -> tuple[Fraction, Fraction]:
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return f, f
    return x.enclosure(bits)


def is_exact(x: RealValue) -> bool:
    return isinstance(x, (int, Fraction, Surd))


def recip(x: RealValue) -> RealValue:
    """Exact reciprocal for exact carriers, certified for adaptive ones."""
    if sign_val(x) == 0:
        raise ZeroDivisionError("reciprocal of zero")
    if isinstance(x, (int, Fraction)):
        return 1 / Fraction(x)
    if isinstance(x, Surd):
        return x.recip()
    return x.mobius(0, 1, 1, 0)


def sign_val(x: RealValue) -> int:
    """Sign of x; refines adaptive values, NeedsPrecision at the cap."""
    if isinstance(x, (int, Fraction)):
        return _sign_int(x)
    if isinstance(x, Surd):
        return x.sign()
    return compare(x, 0)


def compare(x: RealValue, y: RealValue) -> int:
    """Total order: -1, 0 or +1.

    Exact for rational/rational, rational/surd and same-field surd pairs
    (radicands d and d' with d d' a square).
    Everything else falls back to enclosure refinement and raises
    ``NeedsPrecision`` when the values stay unseparated at the cap
    (potential equality; the caller decides).
    """
    if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
        return _sign_int(Fraction(x) - Fraction(y))
    if isinstance(x, Surd) and x._coerce(y):
        return x._cmp(y)
    if isinstance(y, Surd) and y._coerce(x):
        return -y._cmp(x)
    for p in _ladder("values not separated at %d bits"):
        xlo, xhi = enclosure(x, p)
        ylo, yhi = enclosure(y, p)
        if xhi < ylo:
            return -1
        if xlo > yhi:
            return 1
        if xlo == xhi and ylo == yhi:
            return 0


def floor_shift(x: RealValue, alpha) -> int:
    """The shifted integer part floor(x + 1 - alpha).

    This is the digit-extraction floor of the alpha-continued fraction
    family: alpha=1 gives the plain floor, alpha=1/2 rounds to nearest,
    alpha=0 gives the by-excess ceiling-like floor.
    """
    alpha = alpha if isinstance(alpha, (int, Fraction)) else Fraction(alpha)
    if isinstance(x, (int, Fraction)):
        return math.floor(Fraction(x) + 1 - alpha)
    r, s = alpha.numerator, alpha.denominator
    if isinstance(x, Surd):
        # x + 1 - alpha = (a + b sqrt(d))/(s c), and b sqrt(d) lies strictly
        # between +-q and +-(q + 1) for q = isqrt(b^2 d)
        a, b = s * x.a + (s - r) * x.c, s * x.b
        q = math.isqrt(b * b * x.d)
        return (a + q if b > 0 else a - q - 1) // (s * x.c)
    for p in _ladder(f"floor(x + 1 - {alpha}) not certified at %d bits "
                     "(input may sit exactly on a boundary)"):
        lo, hi = x.enclosure(p)
        # floor(N/D + 1 - r/s) = (N s + (s - r) D) // (D s) on each end
        flo, fhi = ((e.numerator * s + (s - r) * e.denominator)
                    // (e.denominator * s) for e in (lo, hi))
        if flo == fhi:
            return flo


def to_float(x: RealValue) -> float:
    return float(x)


# -- text of large integers ------------------------------------------------

def _int_text(n) -> str:
    """str(n), also past the int-to-str digit limit (4300 by default)."""
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def _json_chunks(obj: dict, key: str, pairs) -> Iterator[str]:
    """json.dumps(obj) with obj[key] the list of pairs (p, q), one chunk
    {"p": p, "q": q} per pair, each an int or a Decimal written as its
    digits, also past the int-to-str digit limit."""
    head, _, tail = json.dumps({**obj, key: "\1"}).partition('"\\u0001"')
    yield head + "["
    sep = ""
    for p, q in pairs:
        yield f'{sep}{{"p": {_int_text(p)}, "q": {_int_text(q)}}}'
        sep = ", "
    yield "]" + tail


# -- parsing ---------------------------------------------------------------

_SURD_RE = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(-?\d+)$")


def parse_real(text: str) -> RealValue:
    """Parse 'p/q', '(a+b*sqrt(d))/c' or a decimal string, exactly."""
    text = text.strip().replace("−", "-")
    m = _SURD_RE.match(text)
    if m:
        a, op, b, d, c = m.groups()
        b = int(b) if op == "+" else -int(b)
        return Surd(int(a), b, int(c), int(d))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse number literal {text!r}") from exc
