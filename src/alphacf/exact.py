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

import math
import re
from fractions import Fraction
from typing import Callable, Union

DEFAULT_BITS = 128
PRECISION_CAP = 1 << 16


def _resolve_bits(start_bits, cap) -> tuple[int, int]:
    # None means "the current module-level setting", so callers (notably
    # the CLI precision flags) can adjust precision globally at runtime
    bits = DEFAULT_BITS if start_bits is None else start_bits
    if bits < 1:
        # the refinement loops double the bits; from 0 they never grow
        raise ValueError(f"start bits must be >= 1, got {bits}")
    return bits, PRECISION_CAP if cap is None else cap


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


def _square_free_split(d: int) -> tuple[int, int]:
    """Write d = s**2 * f with f square-free; return (s, f)."""
    s, f = 1, 1
    n = d
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            s *= p ** (k // 2)
            if k % 2:
                f *= p
        p += 1 if p == 2 else 2
    return s, f * n


def _sign_int(n) -> int:
    return (n > 0) - (n < 0)


def _surd_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for square-free d >= 2."""
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


class Surd:
    """Quadratic surd (a + b*sqrt(d)) / c in canonical form.

    Canonical means: c > 0, gcd(a, b, c) = 1, d square-free, b != 0.
    Arithmetic that leaves the field Q(sqrt(d)) is rejected; arithmetic
    whose result is rational is returned as a ``Fraction``.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if c == 0:
            raise ZeroDivisionError("surd denominator is zero")
        if d <= 0:
            raise InvalidRadicand(f"radicand must be positive, got {d}")
        s, f = _square_free_split(d)
        b *= s
        d = f
        if d == 1:
            raise NotASurd(f"({a}+{b})/{c} is rational; use Fraction")
        if b == 0:
            raise NotASurd(f"{a}/{c} is rational; use Fraction")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "b", b // g)
        object.__setattr__(self, "c", c // g)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    @staticmethod
    def _make(a: int, b: int, c: int, d: int) -> Union["Surd", Fraction]:
        """Build a surd, demoting to Fraction if the value is rational."""
        try:
            return Surd(a, b, c, d)
        except NotASurd:
            s, f = _square_free_split(d)
            if f == 1:
                return Fraction(a + b * s, c)
            return Fraction(a, c)

    @classmethod
    def sqrt_of(cls, value: Fraction) -> Union["Surd", Fraction]:
        """Exact square root of a positive rational, as surd or rational."""
        value = Fraction(value)
        if value < 0:
            raise InvalidRadicand("negative radicand")
        # sqrt(p/q) = sqrt(p*q)/q
        return cls._make(0, 1, value.denominator,
                         value.numerator * value.denominator)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        return None

    def __neg__(self):
        return Surd(-self.a, -self.b, self.c, self.d)

    def __add__(self, other):
        if isinstance(other, Surd):
            if other.d != self.d:
                return NotImplemented
            return self._make(self.a * other.c + other.a * self.c,
                              self.b * other.c + other.b * self.c,
                              self.c * other.c, self.d)
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return Surd(self.a * r.denominator + r.numerator * self.c,
                    self.b * r.denominator, self.c * r.denominator, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Surd):
            return self.__add__(-other)
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return self.__add__(-r)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Surd):
            if other.d != self.d:
                return NotImplemented
            return self._make(self.a * other.a + self.b * other.b * self.d,
                              self.a * other.b + self.b * other.a,
                              self.c * other.c, self.d)
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        if r == 0:
            return Fraction(0)
        return Surd(self.a * r.numerator, self.b * r.numerator,
                    self.c * r.denominator, self.d)

    __rmul__ = __mul__

    def recip(self) -> "Surd":
        """Exact reciprocal via the conjugate."""
        norm = self.a * self.a - self.b * self.b * self.d
        return Surd(self.a * self.c, -self.b * self.c, norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, Surd):
            if other.d != self.d:
                return NotImplemented
            return self * other.recip()
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return self * (1 / r)

    def __rtruediv__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return self.recip() * r

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
        if isinstance(other, Surd):
            if other.d != self.d:
                raise TypeError("cannot compare surds over different radicands "
                                "exactly; use compare()")
            diff = self - other
            if isinstance(diff, Fraction):
                return _sign_int(diff)
            return diff.sign()
        r = Fraction(other)
        return _surd_sign(self.a * r.denominator - r.numerator * self.c,
                          self.b * r.denominator, self.d)

    def __eq__(self, other):
        if isinstance(other, Surd) and other.d != self.d:
            return False  # equal values in distinct quadratic fields are rational
        if isinstance(other, (Surd, int, Fraction)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Certified enclosure of width <= 2**(1-bits) * |b|/c roughly."""
        s = math.isqrt(self.d << (2 * bits))
        lo_rt = Fraction(s, 1 << bits)
        hi_rt = Fraction(s + 1, 1 << bits)
        if self.b >= 0:
            t_lo, t_hi = self.b * lo_rt, self.b * hi_rt
        else:
            t_lo, t_hi = self.b * hi_rt, self.b * lo_rt
        return (self.a + t_lo) / self.c, (self.a + t_hi) / self.c

    def __float__(self):
        lo, hi = self.enclosure(64)
        return float((lo + hi) / 2)

    def __floor__(self) -> int:
        lo, _hi = self.enclosure(64)
        n = math.floor(lo)
        while self._cmp(n + 1) >= 0:
            n += 1
        return n

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        return f"({self.a}+{self.b}*sqrt({self.d}))/{self.c}"


class AdaptiveReal:
    """A real defined by a rule producing certified enclosures.

    ``generator(bits)`` must return dyadic-rational bounds (lo, hi) with
    lo <= value <= hi and hi - lo <= 2**(1-bits).  Derived values compose
    generators; refinement is stateless apart from a small cache.
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

    def __neg__(self):
        return AdaptiveReal(lambda bits: tuple(
            -t for t in reversed(self.enclosure(bits))))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            return AdaptiveReal(lambda bits: tuple(
                t + r for t in self.enclosure(bits)))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__add__(-Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def abs(self) -> "AdaptiveReal":
        def gen(bits):
            lo, hi = self.enclosure(bits)
            if lo >= 0:
                return lo, hi
            if hi <= 0:
                return -hi, -lo
            return Fraction(0), max(-lo, hi)
        return AdaptiveReal(gen)

    def recip(self, cap: int = None) -> "AdaptiveReal":
        def gen(bits):
            _, local_cap = _resolve_bits(None, cap)
            p = max(bits, DEFAULT_BITS)
            while True:
                lo, hi = self.enclosure(p)
                if lo > 0 or hi < 0:
                    inv_lo, inv_hi = 1 / hi, 1 / lo
                    if inv_hi - inv_lo <= Fraction(2) ** (1 - bits):
                        return inv_lo, inv_hi
                elif lo == 0 == hi:
                    raise ZeroDivisionError("reciprocal of zero")
                if p >= local_cap:
                    raise NeedsPrecision(
                        f"enclosure straddles zero at {p} bits")
                p *= 2
        return AdaptiveReal(gen)

    def __float__(self):
        lo, hi = self.enclosure(64)
        return float((lo + hi) / 2)

    def __repr__(self):
        lo, hi = self.enclosure(64)
        return f"AdaptiveReal(~{float((lo + hi) / 2)!r})"


RealValue = Union[Fraction, Surd, AdaptiveReal]


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
    if isinstance(x, (int, Fraction)):
        if x == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return 1 / Fraction(x)
    if isinstance(x, Surd):
        return x.recip()
    return x.recip()


def sub_int(x: RealValue, n: int) -> RealValue:
    return x - n


def abs_val(x: RealValue) -> RealValue:
    if isinstance(x, AdaptiveReal):
        return x.abs()
    return abs(x)


def sign_val(x: RealValue, start_bits: int = None, cap: int = None) -> int:
    """Sign of x; refines adaptive values, NeedsPrecision at the cap."""
    if isinstance(x, (int, Fraction)):
        return _sign_int(x)
    if isinstance(x, Surd):
        return x.sign()
    p, cap = _resolve_bits(start_bits, cap)
    while True:
        lo, hi = x.enclosure(p)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == 0 == hi:
            return 0
        if p >= cap:
            raise NeedsPrecision(f"sign not separated from zero at {p} bits")
        p *= 2


def compare(x: RealValue, y: RealValue, start_bits: int = None,
            cap: int = None) -> int:
    """Total order: -1, 0 or +1.

    Exact for rational/rational, rational/surd and same-field surd pairs.
    Everything else falls back to enclosure refinement and raises
    ``NeedsPrecision`` when the values stay unseparated at the cap
    (potential equality; the caller decides).
    """
    if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
        return _sign_int(Fraction(x) - Fraction(y))
    if isinstance(x, Surd) and isinstance(y, (int, Fraction)):
        return x._cmp(y)
    if isinstance(y, Surd) and isinstance(x, (int, Fraction)):
        return -y._cmp(x)
    if isinstance(x, Surd) and isinstance(y, Surd) and x.d == y.d:
        return x._cmp(y)
    p, cap = _resolve_bits(start_bits, cap)
    while True:
        xlo, xhi = enclosure(x, p)
        ylo, yhi = enclosure(y, p)
        if xhi < ylo:
            return -1
        if xlo > yhi:
            return 1
        if xlo == xhi and ylo == yhi:
            return 0
        if p >= cap:
            raise NeedsPrecision(f"values not separated at {p} bits")
        p *= 2


def floor_shift(x: RealValue, alpha, start_bits: int = None,
                cap: int = None) -> int:
    """The shifted integer part floor(x + 1 - alpha).

    This is the digit-extraction floor of the alpha-continued fraction
    family: alpha=1 gives the plain floor, alpha=1/2 rounds to nearest,
    alpha=0 gives the by-excess ceiling-like floor.
    """
    alpha = Fraction(alpha)
    if isinstance(x, (int, Fraction)):
        return math.floor(Fraction(x) + 1 - alpha)
    if isinstance(x, Surd):
        shifted = x + (1 - alpha)
        return math.floor(shifted)
    p, cap = _resolve_bits(start_bits, cap)
    while True:
        lo, hi = x.enclosure(p)
        flo = math.floor(lo + 1 - alpha)
        fhi = math.floor(hi + 1 - alpha)
        if flo == fhi:
            return flo
        if p >= cap:
            raise NeedsPrecision(
                f"floor(x + 1 - {alpha}) not certified at {p} bits "
                "(input may sit exactly on a boundary)")
        p *= 2


def canonicalize_surd(a: int, b: int, c: int, d: int) -> Surd:
    """Canonical quadratic surd (a + b*sqrt(d))/c.

    Raises NotASurd when the value reduces to a rational and
    InvalidRadicand for d <= 0.
    """
    return Surd(a, b, c, d)


def to_float(x: RealValue) -> float:
    return float(x)


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
        return canonicalize_surd(int(a), b, int(c), int(d))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse number literal {text!r}") from exc
