import math
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphacf.alpha import _orbit, alpha_expand
from alphacf.byexcess import minus_expand
from alphacf.exact import (_PRECISION, AdaptiveReal, InvalidRadicand,
                           NeedsPrecision, NotASurd, Surd, compare, enclosure,
                           floor_shift, parse_real, precision, recip,
                           sign_val)

G = Surd(-1, 1, 2, 5)  # (sqrt(5)-1)/2


class TestSurdCanonical:
    def test_gcd_reduction(self):
        s = Surd(2, 2, 4, 5)
        assert (s.a, s.b, s.c, s.d) == (1, 1, 2, 5)

    def test_one_value_over_d_and_4d(self):
        # sqrt(8) = 2 sqrt(2): the radicand is kept as given, and values over
        # radicands whose product is a square share one field
        s, t = Surd(0, 1, 1, 8), Surd(0, 2, 1, 2)
        assert (s.b, s.d) == (1, 8)
        assert s == t and hash(s) == hash(t)
        diff = s - t
        assert isinstance(diff, Fraction) and diff == 0
        # exact in the field: no enclosure refinement, so no NeedsPrecision
        with precision(cap=8):
            assert compare(s, t) == 0 and compare(t, s) == 0
        assert s * t == 8 and s / t == 1 and s < t + Fraction(1, 10 ** 30)
        with pytest.raises(TypeError):
            s + Surd(0, 1, 1, 3)

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

    def test_divide_by_a_rational(self):
        # (sqrt(5) - 1)/2 / (3/7) = 7 (sqrt(5) - 1)/6, and over 2 it is g/2
        assert G / Fraction(3, 7) == Surd(-7, 7, 6, 5)
        assert G / 2 == Surd(-1, 1, 4, 5)
        assert (G / Fraction(-3, 7)) * Fraction(-3, 7) == G
        with pytest.raises(ZeroDivisionError):
            G / Fraction(0)

    def test_pow(self):
        assert G ** 2 == G * G
        assert G ** -1 == 1 + G
        assert G ** 0 == Fraction(1)

    def test_mixed_field_add_rejected(self):
        with pytest.raises(TypeError):
            Surd(0, 1, 1, 2) + Surd(0, 1, 1, 3)
        with pytest.raises(TypeError):
            Surd(0, 1, 1, 2) < Surd(0, 1, 1, 3)
        assert Surd(0, 1, 1, 2) != Surd(0, 1, 1, 3)

    @given(a=st.integers(-30, 30), b=st.integers(-30, 30).filter(bool),
           c=st.integers(1, 30), d=st.sampled_from([2, 3, 5, 6, 8, 12]),
           k=st.integers(2, 9))
    def test_equal_over_scaled_radicand(self, a, b, c, d, k):
        # (a + b k sqrt(d))/c = (a + b sqrt(k^2 d))/c
        s, t = Surd(a, b * k, c, d), Surd(a, b, c, k * k * d)
        assert s == t and t == s and hash(s) == hash(t)
        assert s - t == 0
        with precision(cap=8):
            assert compare(s, t) == 0
        assert s * recip(t) == 1

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

    @given(a=st.integers(-10 ** 40, 10 ** 40),
           b=st.integers(-10 ** 40, 10 ** 40).filter(bool),
           c=st.integers(-10 ** 40, 10 ** 40).filter(bool),
           d=st.integers(2, 10 ** 40).filter(
               lambda d: math.isqrt(d) ** 2 != d))
    def test_surd_floor_brackets_the_value(self, a, b, c, d):
        # both bounds by exact comparison in the field
        s = Surd(a, b, c, d)
        n = math.floor(s)
        assert compare(n, s) < 0 and compare(s, n + 1) < 0


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

        with pytest.raises(NeedsPrecision), precision(cap=1 << 12):
            compare(widen(x), widen(y))

    @pytest.mark.parametrize("call, asked_first, message", [
        (lambda x: compare(x, Fraction(1, 2)), 16,
         "values not separated at 64 bits"),
        (lambda x: floor_shift(x, Fraction(1, 2)), 16,
         "floor(x + 1 - 1/2) not certified at 64 bits "
         "(input may sit exactly on a boundary)"),
        # 1/(2x - 1) has its pole at 1/2; mobius starts at the width asked
        (lambda x: x.mobius(0, 1, 2, -1).enclosure(32), 32,
         "Moebius image not certified at 64 bits"),
        # the Gauss digit of x is 2 below 1/2 and 1 above it
        (lambda x: next(_orbit(x, Fraction(1), (1, 0, 0, 1))), 16,
         "orbit step not certified at 64 bits"),
    ], ids=["compare", "floor_shift", "mobius", "orbit"])
    def test_every_loop_climbs_one_ladder(self, call, asked_first, message):
        # x straddles 1/2 at every precision, so no loop decides; each one
        # doubles from its start up to the cap and stops there
        asked = []
        half = Fraction(1, 2)
        x = AdaptiveReal(lambda bits: asked.append(bits) or (
            half - Fraction(1, 2 ** bits), half + Fraction(1, 2 ** bits)))
        with pytest.raises(NeedsPrecision) as err, precision(bits=16, cap=64):
            call(x)
        assert str(err.value) == message
        assert asked == [b for b in (16, 32, 64) if b >= asked_first]

    def test_start_bits_below_one_rejected(self):
        # straddles zero at every precision below 2 bits, so a loop that
        # started at 0 bits and doubled would never leave it; the scope
        # refuses such a start before any of these loops runs
        third = Fraction(1, 3)
        x = AdaptiveReal(lambda bits: (third - Fraction(1, 2 ** bits),
                                       third + Fraction(1, 2 ** bits)))
        for bits in (0, -4):
            for call in (lambda: sign_val(x),
                         lambda: compare(x, Fraction(1, 3)),
                         lambda: floor_shift(x, 1)):
                with pytest.raises(ValueError), precision(bits=bits):
                    call()
        assert _PRECISION.get() == (128, 1 << 16)

    def test_scope_is_per_thread(self):
        # both threads hold their scopes at once; each refinement starts
        # from its own thread's bits
        barrier = threading.Barrier(2, timeout=30)
        first = {}

        def run(bits):
            asked = []
            x = AdaptiveReal(lambda b: asked.append(b) or
                             (Fraction(1, 3), Fraction(1, 3)))
            with precision(bits=bits):
                barrier.wait()
                sign_val(x)
                barrier.wait()
            first[bits] = asked[0]

        threads = [threading.Thread(target=run, args=(bits,))
                   for bits in (16, 512)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert first == {16: 16, 512: 512}

    def test_arith(self):
        x = AdaptiveReal.from_exact(Fraction(3, 7))
        y = (x + 1) - Fraction(1, 7)
        lo, hi = y.enclosure(80)
        assert lo <= Fraction(9, 7) <= hi

    @pytest.mark.parametrize("value", [G, Surd(3, -1, 2, 5), Fraction(3, 7)],
                             ids=["golden", "golden_sq", "rational"])
    def test_neg_and_rsub_enclose_the_exact_result(self, value):
        x = AdaptiveReal.from_exact(value)
        for got, exact in [(-x, -value), (2 - x, 2 - value),
                           (Fraction(5, 3) - x, Fraction(5, 3) - value)]:
            assert isinstance(got, AdaptiveReal)
            lo, hi = got.enclosure(80)
            assert hi - lo <= Fraction(2) ** -79
            assert compare(lo, exact) <= 0 <= compare(hi, exact)


# beta_40 at alpha = 1/2 and beta*_60 of the golden mean are tiny surds
# with large coefficients, where a fixed-width midpoint is far off
FLOAT_VALUES = pytest.mark.parametrize("value", [
    G, Surd(-1, 1, 1, 2),
    alpha_expand(G, Fraction(1, 2), 40).betas[40],
    minus_expand(G, 60).betastars[60],
], ids=["golden", "silver", "beta40", "betastar60"])


class TestFloat:
    @FLOAT_VALUES
    def test_correctly_rounded(self, value):
        lo, hi = enclosure(value, 300)
        assert float(lo) == float(hi)
        assert float(value) == float(lo)
        assert float(AdaptiveReal.from_exact(value)) == float(lo)

    def test_adaptive_expansion_betas(self):
        x = AdaptiveReal.from_exact(G)
        for got, want in (
                (alpha_expand(x, Fraction(1, 2), 40).betas[40],
                 alpha_expand(G, Fraction(1, 2), 40).betas[40]),
                (minus_expand(x, 60).betastars[60],
                 minus_expand(G, 60).betastars[60])):
            assert float(got) == float(enclosure(want, 300)[0])

    @FLOAT_VALUES
    @pytest.mark.parametrize("bits", [64, 128])
    def test_enclosure_width(self, value, bits):
        # AdaptiveReal's contract, also for a surd with |b| > 2c (beta40
        # has |b|/c near 10^16), which takes guard bits
        for x in (value, AdaptiveReal.from_exact(value)):
            lo, hi = enclosure(x, bits)
            assert lo < hi <= lo + Fraction(2) ** (1 - bits)

    def test_tie_raises_at_the_cap(self):
        # 1 + 2**-53 is the tie between 1 and the next double, so no
        # enclosure around it rounds to one double
        tie = 1 + Fraction(1, 2 ** 53)
        x = AdaptiveReal(lambda bits: (tie - Fraction(1, 2 ** bits),
                                       tie + Fraction(1, 2 ** bits)))
        with pytest.raises(NeedsPrecision) as err:
            float(x)
        assert str(err.value) == "double not certified at 65536 bits"
        assert repr(x) == "AdaptiveReal(~?, no double certified at the cap)"

    def test_float_climbs_the_ladder(self):
        # at 32 bits the ends of sqrt(2) - 1 still round to two doubles;
        # the lower one, 0x1.a827999c00000p-2, is not the value's
        silver = AdaptiveReal.from_exact(Surd(-1, 1, 1, 2))
        with pytest.raises(NeedsPrecision), precision(16, 32):
            float(silver)
        assert float(silver).hex() == "0x1.a827999fcef32p-2"
        assert repr(silver) == "AdaptiveReal(~0.41421356237309503)"


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

    def test_large_radicand(self):
        # the radicand is checked by one isqrt and kept: 10^29 + 319 is prime
        s = parse_real("(1+1*sqrt(100000000000000000000000000319))/2")
        assert (s.a, s.b, s.c, s.d) == (1, 1, 2, 10 ** 29 + 319)
        assert float(s) == pytest.approx((1 + math.sqrt(1e29)) / 2)
        with pytest.raises(NotASurd):
            parse_real("(1+1*sqrt(" + str((10 ** 15 + 37) ** 2) + "))/2")


def test_canonicalize_surd_passthrough():
    s = Surd(2, 4, 6, 5)
    assert (s.a, s.b, s.c, s.d) == (1, 2, 3, 5)
