import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphacf.exact import (AdaptiveReal, InvalidRadicand, NeedsPrecision,
                           NotASurd, Surd, canonicalize_surd, compare,
                           floor_shift, parse_real, recip, sign_val)

G = Surd(-1, 1, 2, 5)  # (sqrt(5)-1)/2


class TestSurdCanonical:
    def test_gcd_reduction(self):
        s = Surd(2, 2, 4, 5)
        assert (s.a, s.b, s.c, s.d) == (1, 1, 2, 5)

    def test_square_free_extraction(self):
        s = Surd(0, 1, 1, 8)  # sqrt(8) = 2 sqrt(2)
        assert (s.b, s.d) == (2, 2)

    def test_negative_denominator_normalized(self):
        s = Surd(1, 1, -2, 3)
        assert s.c == 2 and s.a == -1 and s.b == -1

    def test_perfect_square_rejected(self):
        with pytest.raises(NotASurd):
            Surd(1, 1, 2, 9)
        with pytest.raises(NotASurd):
            Surd(3, 0, 2, 5)

    def test_bad_radicand(self):
        with pytest.raises(InvalidRadicand):
            Surd(1, 1, 2, -5)
        with pytest.raises(ZeroDivisionError):
            Surd(1, 1, 0, 5)


class TestSurdArithmetic:
    def test_golden_identities(self):
        # g^2 = 1 - g and 1/g = 1 + g
        assert G * G == 1 - G
        assert recip(G) == 1 + G

    def test_rational_demotion(self):
        s = Surd(0, 1, 1, 2)
        assert s * s == Fraction(2)
        assert s - s == Fraction(0)

    def test_pow(self):
        assert G ** 2 == G * G
        assert G ** -1 == 1 + G
        assert G ** 0 == Fraction(1)

    def test_mixed_field_add_rejected(self):
        with pytest.raises(TypeError):
            Surd(0, 1, 1, 2) + Surd(0, 1, 1, 3)

    @given(a=st.integers(-30, 30), b=st.integers(-30, 30).filter(bool),
           c=st.integers(1, 30), d=st.sampled_from([2, 3, 5, 7, 11]))
    def test_recip_roundtrip(self, a, b, c, d):
        s = Surd(a, b, c, d)
        if s == 0:
            return
        assert s * recip(s) == Fraction(1)

    @given(a=st.integers(-20, 20), b=st.integers(-20, 20).filter(bool),
           c=st.integers(1, 20), d=st.sampled_from([2, 3, 5, 6, 7]),
           p=st.integers(-40, 40), q=st.integers(1, 40))
    def test_order_matches_float(self, a, b, c, d, p, q):
        s = Surd(a, b, c, d)
        r = Fraction(p, q)
        got = compare(s, r)
        approx = (a + b * math.sqrt(d)) / c - p / q
        if abs(approx) > 1e-9:
            assert got == (1 if approx > 0 else -1)


class TestFloorShift:
    @given(p=st.integers(-500, 500), q=st.integers(1, 500),
           k=st.integers(0, 20))
    def test_rational_matches_floor(self, p, q, k):
        x = Fraction(p, q)
        alpha = Fraction(k, 20)
        assert floor_shift(x, alpha) == math.floor(x + 1 - alpha)

    def test_surd_floor(self):
        assert math.floor(G) == 0
        assert math.floor(Surd(1, 1, 1, 5)) == 3  # 1 + sqrt(5)
        assert floor_shift(G, 1) == 0
        assert floor_shift(G, 0) == 1  # floor(g + 1)

    def test_surd_floor_near_integer(self):
        # (1 + sqrt(2))^6 = 99 + 70 sqrt(2) = 197.9949...
        s = Surd(1, 1, 1, 2) ** 6
        assert math.floor(s) == 197


class TestAdaptive:
    def test_enclosure_width(self):
        x = AdaptiveReal.from_exact(G)
        lo, hi = x.enclosure(200)
        assert lo <= hi and hi - lo <= Fraction(2) ** (-199)

    def test_sign_and_recip(self):
        x = AdaptiveReal.from_exact(G)
        assert sign_val(x) == 1
        inv = recip(x)
        lo, hi = inv.enclosure(100)
        golden = (1 + math.sqrt(5)) / 2
        assert float(lo) <= golden <= float(hi)
        assert abs(float(inv) - golden) < 1e-12

    def test_equal_values_hit_precision_cap(self):
        x = AdaptiveReal.from_exact(Fraction(1, 3) + Fraction(0))
        y = AdaptiveReal.from_exact(Fraction(1, 3))

        def widen(v):
            # degrade to a genuine interval so refinement cannot finish
            return AdaptiveReal(lambda bits: (
                v.enclosure(bits)[0] - Fraction(1, 2 ** (bits + 1)),
                v.enclosure(bits)[1] + Fraction(1, 2 ** (bits + 1))))

        with pytest.raises(NeedsPrecision):
            compare(widen(x), widen(y), cap=1 << 12)

    def test_start_bits_below_one_rejected(self):
        # straddles zero at every precision below 2 bits, so a loop that
        # started at 0 bits and doubled would never leave it
        third = Fraction(1, 3)
        x = AdaptiveReal(lambda bits: (third - Fraction(1, 2 ** bits),
                                       third + Fraction(1, 2 ** bits)))
        for bits in (0, -4):
            with pytest.raises(ValueError):
                sign_val(x, start_bits=bits)
            with pytest.raises(ValueError):
                compare(x, Fraction(1, 3), start_bits=bits)
            with pytest.raises(ValueError):
                floor_shift(x, 1, start_bits=bits)

    def test_arith(self):
        x = AdaptiveReal.from_exact(Fraction(3, 7))
        y = (x + 1) - Fraction(1, 7)
        lo, hi = y.enclosure(80)
        assert lo <= Fraction(9, 7) <= hi


class TestParsing:
    def test_fraction(self):
        assert parse_real("5/7") == Fraction(5, 7)
        assert parse_real("0.125") == Fraction(1, 8)

    def test_surd(self):
        s = parse_real("(-1+1*sqrt(5))/2")
        assert s == G

    def test_unicode_minus(self):
        assert parse_real("−5/7") == Fraction(-5, 7)

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_real("sqrt(banana)")


def test_canonicalize_surd_passthrough():
    s = canonicalize_surd(2, 4, 6, 5)
    assert (s.a, s.b, s.c, s.d) == (1, 2, 3, 5)
