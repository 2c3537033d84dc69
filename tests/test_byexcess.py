from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphacf.alpha import _convergents, _expansion, alpha_expand
from alphacf.brjuno import semi_brjuno
from alphacf.byexcess import (MalformedStream, complement_regular,
                              minus_expand, minus_step, minus_to_regular,
                              regular_to_minus)
from alphacf.corpus import surd_corpus
from alphacf.exact import AdaptiveReal, DomainError, Surd, compare

G = Surd(-1, 1, 2, 5)


def regular_digits(x: Fraction) -> list[int]:
    return [d.a for d in alpha_expand(x, 1, 10 ** 6).digits]


class TestMinusStep:
    def test_unit_fractions_map_to_one(self):
        for n in range(2, 12):
            b, nxt = minus_step(Fraction(1, n))
            assert b == n + 1
            assert nxt == Fraction(1)

    def test_fixed_point(self):
        b, nxt = minus_step(Fraction(1))
        assert b == 2 and nxt == Fraction(1)

    def test_domain(self):
        with pytest.raises(DomainError):
            minus_step(Fraction(0))
        with pytest.raises(DomainError):
            minus_step(Fraction(3, 2))


class TestMinusExpansion:
    def test_five_sevenths(self):
        exp = minus_expand(Fraction(5, 7), 30)
        assert exp.digits == [2, 2, 4]
        assert exp.reached_one
        assert exp.pstar == [0, 1, 2, 7]
        assert exp.qstar == [1, 2, 3, 10]

    def test_convergent_unimodularity(self):
        exp = minus_expand(Fraction(13, 29), 10 ** 5)
        for n in range(1, len(exp.qstar)):
            assert (exp.pstar[n] * exp.qstar[n - 1]
                    - exp.pstar[n - 1] * exp.qstar[n]) == 1

    def test_golden_stream(self):
        exp = minus_expand(G, 10)
        assert exp.digits == [2] + [3] * 9
        assert not exp.reached_one
        # remainder is pinned at g^2 = 1 - g
        assert compare(exp.remainders[-1], 1 - G) == 0

    def test_beta_star_equals_qx_minus_p(self):
        x = Fraction(13, 29)
        exp = minus_expand(x, 10 ** 5)
        for n in range(len(exp.digits)):
            assert exp.betastars[n] == abs(exp.qstar[n] * x - exp.pstar[n])

    def test_qstar_doubles_per_block(self):
        # the doubling estimate is proved for x > 1/2 (leading run of 2's)
        x = Fraction(16, 29)
        exp = minus_expand(x, 10 ** 5)
        # t_k: the position of the k-th digit > 2, which closes a block
        t = [n for n, b in enumerate(exp.digits) if b > 2]
        for k, t_k in enumerate(t, start=1):
            assert exp.qstar[t_k] >= 2 ** k


LAZY_INPUTS = ([Fraction(4999, 5000), Fraction(1, 3), 3, Fraction(-2)]
               + surd_corpus()
               + [AdaptiveReal.from_exact(s) for s in surd_corpus(6)[4:]])


class TestLazyConvergents:
    # p*/q* are built on first read, and equal the eager recurrence over
    # the kernel's own steps (eps included), as minus_expand once built them
    @pytest.mark.parametrize("budget", [0, 1, 200, 10 ** 4])
    def test_match_the_eager_recurrence(self, budget):
        for x in LAZY_INPUTS:
            m = minus_expand(x, budget)
            assert "pstar" not in vars(m) and "qstar" not in vars(m)
            steps = _expansion(m.x0, Fraction(0), (1, 0, 0, 1), budget)[0]
            eager = _convergents(steps, 1)
            assert _convergents([(b, -1) for b in m.digits], 1) == eager
            assert (m.pstar, m.qstar) == eager
            assert len(m.qstar) == len(m.digits) + 1 == len(m.remainders)
            # unimodularity on the first 200 indices and the last one; the
            # products in between cost seconds at 10**4 digits
            last = len(m.qstar) - 1
            for n in range(1, last + 1):
                if n <= 200 or n == last:
                    assert (m.pstar[n] * m.qstar[n - 1]
                            - m.pstar[n - 1] * m.qstar[n]) == 1
            assert m.pstar is vars(m)["pstar"] and m.qstar is vars(m)["qstar"]

    def test_only_the_csv_writer_builds_them(self):
        for x in (Fraction(4999, 5000), Surd(2, -1, 4, 3)):
            m = minus_expand(x, 200)
            "".join(m.to_json_chunks())
            semi_brjuno(m.x, 200, with_q_series=True)
            assert not {"pstar", "qstar", "_star"} & set(vars(m))
            rows = m.to_csv_rows()
            assert "qstar" in vars(m)
            assert [r[3] for r in rows[1:]] == m.qstar[:-1]
            assert [r[2] for r in rows[1:]] == m.pstar[:-1]

    def test_assignment_overrides(self):
        m = minus_expand(Fraction(5, 7), 30)
        m.pstar, m.qstar = [1], [2]
        assert (m.pstar, m.qstar) == ([1], [2])
        assert minus_expand(Fraction(5, 7), 30).qstar == [1, 2, 3, 10]


class TestDictionary:
    def test_rejects_bad_digit(self):
        with pytest.raises(MalformedStream):
            minus_to_regular([2, 1, 3])

    def test_five_sevenths_forward(self):
        a, terminated = minus_to_regular([2, 2, 4], tail_of_twos=True)
        assert (a, terminated) == ([1, 2, 2], True)

    def test_five_sevenths_inverse(self):
        assert regular_to_minus([1, 2, 2]) == ([2, 2, 4], True)

    def test_side_inference_below_half(self):
        # 1/3 = by-excess [4, tail of 2's]; regular [3]
        a, terminated = minus_to_regular([4], tail_of_twos=True)
        assert (a, terminated) == ([3], True)

    @given(p=st.integers(1, 499), q=st.integers(2, 500))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_rationals(self, p, q):
        if p >= q:
            return
        x = Fraction(p, q)
        reg = regular_digits(x)
        exp = minus_expand(x, 10 ** 6)
        assert exp.reached_one
        a, terminated = minus_to_regular(exp.digits,
                                         tail_of_twos=exp.reached_one)
        assert terminated and a == reg
        b, tail2 = regular_to_minus(reg)
        assert tail2 and b == exp.digits

    def test_irrational_prefix_roundtrip(self):
        exp = minus_expand(G, 40)
        a, terminated = minus_to_regular(exp.digits)
        assert not terminated
        assert a[:10] == [1] * 10  # golden ratio: all regular digits are 1
        b, tail2 = regular_to_minus(a, terminated=False)
        assert not tail2
        assert b == exp.digits[:len(b)]

    def test_all_twos_prefix_carries_no_digit(self):
        a, terminated = minus_to_regular([2, 2, 2])
        assert a == [] and not terminated


class TestComplement:
    def test_worked_example(self):
        # 2/7 = [3, 2];  5/7 = 1 - 2/7 = [1, 2, 2]
        assert complement_regular([3, 2]) == [1, 2, 2]

    @given(p=st.integers(1, 200), q=st.integers(3, 401))
    @settings(max_examples=80, deadline=None)
    def test_matches_expansion(self, p, q):
        x = Fraction(p, q)
        if not 0 < x < Fraction(1, 2):
            return
        assert complement_regular(regular_digits(x)) == regular_digits(1 - x)

    def test_needs_small_x(self):
        with pytest.raises(DomainError):
            complement_regular([1, 2])
