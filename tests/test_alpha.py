import decimal
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphacf import exact
from alphacf.alpha import (_convergent_text, _convergents, alpha_bar,
                           alpha_expand, alpha_reduce, alpha_step, beta_check,
                           decay_check, reconstruction_check, rho_alpha)
from alphacf.brjuno import _rates
from alphacf.byexcess import minus_expand
from alphacf.exact import AdaptiveReal, DomainError, Surd, compare, to_float

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
# sqrt(1 - 2 alpha) is a surd over a 31-digit radicand
TINY_ALPHA = "1/1000000000000037"
# a 12-digit prime radicand, and a 30-digit one, 10^29 + 319
BIG_SURD = "(0+1*sqrt(999999999989))/1000000"
HUGE_SURD = "(1+1*sqrt(100000000000000000000000000319))/2"

G = Surd(-1, 1, 2, 5)
G_SQ = Surd(3, -1, 2, 5)
GAMMA = Surd(-1, 1, 1, 2)


def euclid_cf(x: Fraction) -> list[int]:
    """Reference regular continued fraction of a rational in (0, 1)."""
    out = []
    num, den = x.numerator, x.denominator
    # digits of 1/x via the Euclidean algorithm
    while num:
        out.append(den // num)
        den, num = num, den % num
    return out


class TestGaussMap:
    def test_golden_all_ones(self):
        exp = alpha_expand(G, 1, 10)
        assert [d.a for d in exp.digits] == [1] * 10
        assert all(d.eps == 1 for d in exp.digits)
        assert exp.q_seq == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]

    def test_five_sevenths(self):
        exp = alpha_expand(Fraction(5, 7), 1, 20)
        assert [d.a for d in exp.digits] == [1, 2, 2]
        assert exp.terminated
        assert exp.p_seq[-1] == 5 and exp.q_seq[-1] == 7

    @given(p=st.integers(1, 400), q=st.integers(2, 400))
    def test_matches_euclid(self, p, q):
        if p >= q:
            return
        x = Fraction(p, q)
        exp = alpha_expand(x, 1, 100)
        assert [d.a for d in exp.digits] == euclid_cf(x)


class TestNearestInteger:
    def test_golden_square_fixed_point(self):
        exp = alpha_expand(G_SQ, Fraction(1, 2), 6)
        assert [(d.a, d.eps) for d in exp.digits] == [(3, -1)] * 6
        for r in exp.remainders:
            assert compare(r, G_SQ) == 0

    def test_integer_input_empty(self):
        exp = alpha_expand(Fraction(4), Fraction(1, 2), 5)
        assert exp.digits == [] and exp.terminated
        assert exp.integer_part == 4


class TestReduce:
    def test_rounding(self):
        assert alpha_reduce(Fraction(7, 10), 1) == (0, Fraction(7, 10))
        assert alpha_reduce(Fraction(7, 10), Fraction(1, 2)) == \
            (1, Fraction(3, 10))

    def test_boundary_remainder_is_accepted(self):
        # x = n + alpha with alpha < 1/2 reduces to exactly 1 - alpha
        n, x0 = alpha_reduce(Fraction(31, 10), Fraction(1, 10))
        assert (n, x0) == (4, Fraction(9, 10))
        alpha_step(x0, Fraction(1, 10))  # must not raise

    @pytest.mark.parametrize("alpha", [1, Fraction(1, 2), Fraction(1, 10), 0])
    def test_adaptive_matches_the_exact_reduction(self, alpha):
        for x in (G + 3, -G, Surd(1, 1, 3, 7), -Surd(1, 1, 3, 7) - 2):
            n, exact = alpha_reduce(x, alpha)
            got_n, got = alpha_reduce(AdaptiveReal.from_exact(x), alpha)
            assert isinstance(got, AdaptiveReal) and got_n == n
            lo, hi = got.enclosure(80)
            assert hi - lo <= Fraction(2) ** -79
            assert compare(lo, exact) <= 0 <= compare(hi, exact)

    def test_out_of_domain_step(self):
        with pytest.raises(DomainError):
            alpha_step(Fraction(0), 1)
        with pytest.raises(DomainError):
            alpha_step(Fraction(3, 5), Fraction(1, 2))


class TestRho:
    def test_regimes(self):
        assert rho_alpha(1) == G
        assert rho_alpha(Fraction(7, 10)) == G
        assert rho_alpha(Fraction(1, 2)) == GAMMA
        assert rho_alpha(Fraction(9, 20)) == GAMMA
        got = rho_alpha(Fraction(1, 5))
        assert got * got == Fraction(3, 5)

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            rho_alpha(0)

    @pytest.mark.parametrize("alpha", ["1/5", "1/10", "3/10", "1/3", "2/5",
                                       "3/8", "9/20", "7/10", "5/18", "1/100",
                                       "1"])
    def test_float_is_the_surd_double(self, alpha):
        # the rate brjuno_sum reads is the correctly rounded double, which
        # it takes, with abar's, from the integers of _rho_power
        alpha = Fraction(alpha)
        rho = rho_alpha(alpha)
        assert to_float(rho) == \
            exact._nearest_float(AdaptiveReal.from_exact(rho))
        assert _rates(alpha) == (to_float(rho), float(alpha_bar(alpha)))

    @pytest.mark.parametrize("code", [
        "from alphacf import brjuno_sum, make_u\n"
        "from alphacf.corpus import GOLDEN\n"
        f"brjuno_sum(GOLDEN, Fraction('{TINY_ALPHA}'), make_u('log'), 50)",
        "from alphacf import alpha_expand, decay_check\n"
        "decay_check(alpha_expand(Fraction(13, 31), "
        f"Fraction('{TINY_ALPHA}'), 20))",
        "from alphacf.cli import main\n"
        "sys.exit(main(['--out', os.devnull, 'brjuno', '--x', "
        f"'(-1+1*sqrt(5))/2', '--alpha', '{TINY_ALPHA}', '--n', '10']))",
        "from alphacf import rho_alpha\n"
        f"rho = rho_alpha(Fraction('{TINY_ALPHA}'))\n"
        f"assert rho * rho == 1 - 2 * Fraction('{TINY_ALPHA}')",
    ], ids=["brjuno_sum", "decay_check", "cli_brjuno", "rho_alpha"])
    def test_large_denominator_alpha_returns(self, code):
        run_within_10s(code)


def run_within_10s(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    prelude = "import os, sys\nfrom fractions import Fraction\n"
    proc = subprocess.run([sys.executable, "-c", prelude + code],
                          env=env, capture_output=True, text=True,
                          timeout=10)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("code", [
    "from alphacf.cli import main\n"
    "sys.exit(main(['--out', os.devnull, 'expand', '--x', "
    f"'{BIG_SURD}', '--alpha', '1/2', '--n', '400']))",
    "from alphacf.cli import main\n"
    "sys.exit(main(['--out', os.devnull, 'expand', '--x', "
    f"'{HUGE_SURD}', '--alpha', '1/2', '--n', '400']))",
    "from alphacf import (alpha_expand, beta_check, minus_expand,\n"
    "                     parse_real, reconstruction_check)\n"
    f"x = parse_real('{BIG_SURD}')\n"
    "exp = alpha_expand(x, Fraction(1, 2), 200)\n"
    "assert beta_check(exp).all_ok and reconstruction_check(exp)\n"
    "assert len(minus_expand(x, 200).digits) == 200",
], ids=["cli_expand", "cli_expand_30_digits", "checks"])
def test_large_radicand_returns(code):
    # no step factors a radicand, however large
    run_within_10s(code)


class TestIdentities:
    @given(p=st.integers(1, 999), q=st.integers(2, 1000),
           k=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_lemma_identities_random(self, p, q, k):
        if p >= q:
            return
        x = Fraction(p, q)
        alpha = Fraction(k, 20)
        exp = alpha_expand(x, alpha, 300)
        rep = beta_check(exp)
        assert all(rep.lemma1_ok)
        assert all(s is not False for s in rep.sandwich_ok)
        assert reconstruction_check(exp)
        assert decay_check(exp)

    def test_surd_identities(self):
        for x in (G, GAMMA, Surd(-1, 1, 1, 3)):
            for alpha in (1, Fraction(1, 2), Fraction(3, 10)):
                exp = alpha_expand(x, alpha, 25)
                assert beta_check(exp).all_ok
                assert reconstruction_check(exp)
                assert decay_check(exp)

    @pytest.mark.parametrize("x, alpha", [
        (Fraction(13, 29), Fraction(1, 3)), (GAMMA, Fraction(1, 2)),
    ], ids=["rational", "surd"])
    def test_reconstruction_check_catches_tampering(self, x, alpha):
        # one remainder moved, or one digit's sign flipped, while the
        # convergents stay: the identity must fail at that index
        exp = alpha_expand(x, alpha, 12)
        for n in range(len(exp.remainders)):
            moved = list(exp.remainders)
            moved[n] += Fraction(1, 10 ** 6)
            assert not reconstruction_check(replace(exp, remainders=moved))
        # a terminating step's sign multiplies the remainder 0
        for n in range(len(exp.digits) - exp.terminated):
            flipped = list(exp.digits)
            flipped[n] = flipped[n]._replace(eps=-flipped[n].eps)
            assert not reconstruction_check(replace(exp, digits=flipped))
        assert reconstruction_check(exp)

    @given(steps=st.lists(st.tuples(st.integers(1, 10 ** 12),
                                    st.sampled_from((-1, 1))),
                          max_size=600),
           eps0=st.sampled_from((-1, 1)))
    @settings(max_examples=40, deadline=None)
    @example(steps=[(10 ** 9, 1)] * 500, eps0=1)
    @example(steps=[(2, -1), (10 ** 5000, 1), (3, -1)], eps0=-1)
    def test_decimal_convergents_match_the_integers(self, steps, eps0):
        # the writers' Decimal run of the recurrence gives the digits of
        # the integer one, also past the 4300-digit int-to-str limit, and
        # leaves the thread's decimal context as it was
        before = decimal.getcontext().prec
        got = _convergent_text(steps, eps0)
        assert decimal.getcontext().prec == before
        for dec, ints in zip(got, _convergents(steps, eps0)):
            assert [str(v) for v in dec] == [exact._int_text(v) for v in ints]

    def test_determinants(self):
        exp = alpha_expand(Fraction(13, 29), Fraction(1, 3), 20)
        for c in exp.convergents:
            assert c.p_prev * c.q - c.q_prev * c.p == c.det
            assert c.det in (-1, 1)


class TestLazyBetas:
    # an expansion builds its betas on first read, and its writers read
    # none of a surd's: the CSV takes a surd beta from q_{n+1} and x_{n+1},
    # or from Lemma 1 on its last row
    @pytest.mark.parametrize("expand, key", [
        (lambda x: alpha_expand(x, 0, 60), "betas"),
        (lambda x: alpha_expand(x, Fraction(1, 2), 60), "betas"),
        (lambda x: minus_expand(x, 60), "betastars"),
    ], ids=["alpha_0", "alpha_1/2", "minus"])
    def test_surd_expansion_and_writers_build_no_beta(self, expand, key):
        exp = expand(Surd(2, -1, 4, 3))
        assert key not in vars(exp)
        exp.to_csv_rows()
        assert key not in vars(exp)
        "".join(exp.to_json_chunks())
        assert key not in vars(exp)
        betas = getattr(exp, key)
        assert len(betas) == len(exp.remainders) == 61
        assert getattr(exp, key) is betas is vars(exp)[key]

    def test_rational_minus_expand_builds_no_beta(self):
        exp = minus_expand(Fraction(4999, 5000), 6000)
        assert "betastars" not in vars(exp)
        assert exp.betastars[-1] == Fraction(1, 5000)

    def test_assignment_overrides(self):
        exp = alpha_expand(G, Fraction(1, 2), 10)
        exp.betas = [Fraction(1)]
        assert exp.betas == [Fraction(1)]
        assert not beta_check(exp).all_ok
