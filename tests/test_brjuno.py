import json
import math
import tracemalloc
from fractions import Fraction

import pytest

import alphacf
from alphacf import alpha, brjuno, exact
from alphacf.brjuno import (DIFF_KINDS, ConditionViolation, b0_even,
                            brjuno_sum, diff_report, figure_rows,
                            functional_residual, log_denominator_sum, make_u,
                            q_series, semi_brjuno)
from alphacf.corpus import rational_corpus, surd_corpus
from alphacf.exact import DomainError, Surd
from test_differential import benchmark_pool

G = Surd(-1, 1, 2, 5)
G_SQ = Surd(3, -1, 2, 5)
GAMMA = Surd(-1, 1, 1, 2)

LOG_G = math.log((math.sqrt(5) - 1) / 2)
G_F = (math.sqrt(5) - 1) / 2
# a radicand this large repeats no state within any budget here
NO_REPEAT = Surd(1, 1, 2, 10 ** 29 + 319)


class TestWeights:
    def test_power_needs_sigma_above_one(self):
        for sigma in (1.0, math.nan):
            with pytest.raises(ConditionViolation):
                make_u("power", sigma=sigma)
        make_u("power", sigma=2.0)  # fine

    def test_nan_weight_rejected(self):
        # a NaN compares False both ways, so it must fail "u >= 10"
        with pytest.raises(ConditionViolation):
            make_u("custom", eval_fn=lambda t: math.nan,
                   deriv_fn=lambda t: math.nan)

    def test_custom_violating_weight_rejected(self):
        # u = 1/x^2 fails lim x*u(x) < infinity
        with pytest.raises(ConditionViolation):
            make_u("custom", eval_fn=lambda t: t ** -2.0,
                   deriv_fn=lambda t: -2.0 * t ** -3.0)


    @pytest.mark.parametrize("name, sigma", [
        ("log", None), ("inv_sqrt", None),
        *[("power", sigma) for sigma in (1.0000001, 1.5, 2, 3, 7.3, 12)]])
    def test_builtin_m1_is_the_grid_sup(self, name, sigma):
        # a built-in weight decreases: M1 is u at the grid's first point
        u = make_u(name, sigma=sigma)
        assert u.M1 == brjuno._grid_sup(u.eval, 0.1 / 1.1, 1.0)

    def test_u_is_the_weight_at_the_least_double(self):
        # a built-in weight decreases, so no double in [2^-1074, 1] has a
        # larger u; u(2^-1074) overflows for power at sigma < 1074/1024
        tiny = 2.0 ** -1074
        assert make_u("log").U == -math.log(tiny) == 1074 * math.log(2)
        assert make_u("inv_sqrt").U == make_u("power", sigma=2).U == 2.0 ** 537
        assert make_u("power", sigma=1.0489).U == tiny ** (-1 / 1.0489)
        assert make_u("power", sigma=1.0487).U == math.inf
        custom = make_u("custom", eval_fn=lambda t: -math.log(t),
                        deriv_fn=lambda t: -1.0 / t)
        assert custom.U == math.inf
        assert brjuno.SingularityU("bare", custom.eval, custom.M1).U == \
            math.inf


class TestClosedForms:
    def test_gauss_log_at_golden(self):
        want = -LOG_G / G_F ** 2
        got = brjuno_sum(G, 1, make_u("log"), 200, keep_terms=False)
        assert got.value == pytest.approx(want, abs=1e-9)
        assert got.converged

    def test_gauss_log_at_gamma(self):
        # sqrt(2)-1 has digits [2,2,2,...]: B = sum gamma^n log(1/gamma)
        gam = math.sqrt(2) - 1
        want = -math.log(gam) / (1 - gam)
        got = brjuno_sum(GAMMA, 1, make_u("log"), 200, keep_terms=False)
        assert got.value == pytest.approx(want, abs=1e-9)

    def test_nearest_integer_at_golden(self):
        # orbit fixed at g^2: B = -2 log g / g
        want = -2 * LOG_G / G_F
        got = brjuno_sum(G, Fraction(1, 2), make_u("log"), 200,
                         keep_terms=False)
        assert got.value == pytest.approx(want, abs=1e-9)

    def test_semi_brjuno_at_golden(self):
        assert semi_brjuno(G, 500, keep_terms=False).value == \
            pytest.approx(-3 * LOG_G, abs=1e-9)

    def test_semi_brjuno_at_golden_square(self):
        assert semi_brjuno(G_SQ, 500, keep_terms=False).value == \
            pytest.approx(-2 * LOG_G / G_F, abs=1e-9)

    def test_semi_brjuno_rational_exact(self):
        # orbit of 5/7: 5/7 -> 3/5 -> 1/3 -> 1
        want = (math.log(Fraction(7, 5)) + 5 / 7 * math.log(Fraction(5, 3))
                + 5 / 7 * 3 / 5 * math.log(3))
        res = semi_brjuno(Fraction(5, 7), 100)
        assert res.value == pytest.approx(want, abs=1e-12)
        assert res.converged and res.tail_estimate == 0.0

    def test_b0_even_at_half(self):
        assert b0_even(Fraction(1, 2), 50) == \
            pytest.approx(2 * math.log(2), abs=1e-12)

    def test_even_part_gap_at_golden(self):
        b1 = brjuno_sum(G, 1, make_u("log"), 300, keep_terms=False).value
        want = -3 * LOG_G - 2 * LOG_G / G_F + LOG_G / G_F ** 2
        assert b0_even(G, 500) - b1 == pytest.approx(want, abs=1e-8)

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            brjuno_sum(G, 0, make_u("log"), 10)


class TestCompanionSeries:
    def test_q_series_vanishes_on_unit_digits(self):
        # all digits 1 under the log weight: every term is log(1) = 0
        assert q_series(G, 1, make_u("log"), 100) == 0.0

    def test_q_series_close_to_sum_at_gamma(self):
        u = make_u("log")
        b = brjuno_sum(GAMMA, 1, u, 200, keep_terms=False).value
        qs = q_series(GAMMA, 1, u, 200)
        assert abs(b - qs) < 2.0

    def test_b0_qseries_skips_digit_two(self):
        # 1/2 has by-excess digits [3, tail of 2's]: single term log 2
        assert semi_brjuno(Fraction(1, 2), 50, with_q_series=True) \
            .companion_q_series == pytest.approx(math.log(2), abs=1e-12)

    def test_istar_block_sum(self):
        for x in (Fraction(5, 7), Fraction(355, 113) - 3, G, GAMMA):
            res = semi_brjuno(x, 5000, keep_terms=False)
            assert 0.0 <= res.istar_sum <= 2.0


class TestHugeDigits:
    """A digit a past the double range, a >= 2**1024 - 2**970, where
    1.0 / a overflows: the q-series weight reads the correctly rounded
    1 / a, and a DomainError where that is 0.0."""

    N = 2 ** 1030

    def test_reciprocal_past_the_double_range(self):
        edge = 2 ** 1024 - 2 ** 970   # the least int whose double is inf
        with pytest.raises(OverflowError):
            1.0 / edge
        assert brjuno._recip(edge - 1) == 1.0 / (edge - 1)
        for a in (edge, 2 ** 1030, 2 ** 1075 - 1):
            assert brjuno._recip(a) == 1 / a > 0.0
        with pytest.raises(DomainError, match="1/a_n is below 2"):
            brjuno._recip(2 ** 1075)

    @pytest.mark.parametrize("u_name", ["log", "inv_sqrt"])
    def test_rational(self, u_name):
        # 1/N: one term, u(1/N), and one q-series term, u(1/a_1) / q_0
        u = make_u(u_name)
        res = brjuno_sum(Fraction(1, self.N), 1, u, 200, with_q_series=True)
        assert res.value == res.companion_q_series == u.eval(2.0 ** -1030)

    def test_surd(self):
        # sqrt(N^2 + 1) - N = [0; 2N, 2N, ...]
        x = Surd(-self.N, 1, 1, self.N ** 2 + 1)
        u = make_u("log")
        res = brjuno_sum(x, 1, u, 0, with_q_series=True)
        assert res.companion_q_series == u.eval(2.0 ** -1031)
        assert math.isfinite(
            brjuno_sum(x, 1, u, 5, with_q_series=True).companion_q_series)

    def test_q_series_past_2_to_the_1023(self):
        # x = [0; 1 (x1476), 2]: every q-series weight is u(1) = 0 but the
        # last, log 2 / q_1476, where q_1476 has 1025 bits and 1/q_1476 is
        # a subnormal double (it read 0.0 while 1/q stopped at 2^1023)
        x, q_prev, q = Fraction(1, 2), 0, 1
        for _ in range(1476):
            x, q_prev, q = 1 / (1 + x), q, q + q_prev
        assert q.bit_length() == 1025
        for n_max in (1476, 2000):
            res = brjuno_sum(x, 1, make_u("log"), n_max, with_q_series=True)
            assert res.companion_q_series == math.log(2) * (1 / q) == \
                3.277674436815073e-309
        assert brjuno._inv(2 ** 1023) == 2.0 ** -1023
        assert brjuno._inv(2 ** 1075 - 1) == 2.0 ** -1074
        assert brjuno._inv(2 ** 1075) == 0.0

    def test_reciprocal_below_the_double_range(self):
        # x_0 = 2/(2^1076 - 1) rounds to 2^-1074, its digit at alpha = 1/2
        # is 2^1075 and 1/a rounds to 0.0
        x = Fraction(2, 2 ** 1076 - 1)
        with pytest.raises(DomainError, match="1/a_n is below 2"):
            brjuno_sum(x, Fraction(1, 2), make_u("log"), 5,
                       with_q_series=True)
        assert brjuno_sum(x, Fraction(1, 2), make_u("log"), 5).value > 0


class TestBudgets:
    @pytest.mark.parametrize("call", [
        lambda: semi_brjuno(Fraction(5, 7), -1),
        lambda: semi_brjuno(G, -1),
        lambda: semi_brjuno(G, -1, with_q_series=True),
        lambda: b0_even(Fraction(5, 7), -1),
        lambda: brjuno_sum(Fraction(5, 7), 1, make_u("log"), -1),
        lambda: q_series(Fraction(5, 7), 1, make_u("log"), -1),
        lambda: q_series(G, Fraction(1, 2), make_u("log"), -1),
        lambda: log_denominator_sum(G, -1),
    ], ids=["b0", "b0_surd", "b0_qseries", "b0_even", "brjuno_sum",
            "q_series", "q_series_surd", "log_denominator_sum"])
    def test_negative_budget_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestPrecisionIndependence:
    def test_surd_sums_ignore_the_cap(self):
        # a surd walks exact (P, Q, D) states and rounds each double in
        # integers, so no enclosure needs the precision cap
        u = make_u("log")

        def run():
            return [(r.value.hex(), r.terms, r.tail_estimate, r.converged)
                    for r in (brjuno_sum(G, Fraction(1, 2), u, 400),
                              semi_brjuno(Surd(2, 1, 4, 2), 10 ** 4))]

        want = run()
        with exact.precision(cap=128):
            assert run() == want

    def test_tail_rate_ignores_the_cap(self):
        # below alpha = sqrt(2) - 1 the tail takes sqrt(1 - 2 alpha), which
        # is rounded in integers too: a 2-bit cap used to give 3/4 for 0.7746
        u = make_u("log")
        x = Surd(-1, 1, 3, 7)
        want = [brjuno_sum(x, alpha, u, 200).tail_estimate
                for alpha in (Fraction(1, 5), Fraction(3, 8))]
        with exact.precision(bits=2, cap=2):
            assert [brjuno_sum(x, alpha, u, 200).tail_estimate
                    for alpha in (Fraction(1, 5), Fraction(3, 8))] == want


class TestAdaptiveSeed:
    def test_gauss_seed_builds_no_moebius_image(self, monkeypatch):
        # at alpha = 1, x - floor(x) >= 0 is not certified, and the orbit
        # walks the ends of x's own enclosures: no Moebius image of x
        images = []

        def counted(self, *m, mobius=exact.AdaptiveReal.mobius):
            images.append(m)
            return mobius(self, *m)

        monkeypatch.setattr(exact.AdaptiveReal, "mobius", counted)
        semi = semi_brjuno(exact.AdaptiveReal.from_exact(G), 10 ** 4,
                           keep_terms=False)
        gauss = brjuno_sum(exact.AdaptiveReal.from_exact(G), 1, make_u("log"),
                           400, keep_terms=False)
        assert images == []
        assert semi.value == pytest.approx(-3 * LOG_G, rel=1e-12)
        assert gauss.value == pytest.approx(-LOG_G / G_F ** 2, rel=1e-12)


class TestAdaptiveExit:
    def test_golden_mean_at_a_large_budget(self):
        # every x_n exceeds 1/2, so beta stops at 2^-1074 and never reaches
        # 0.0; the sum stops once beta_prev U is absorbed, with the Surd's
        # fields (it raised NeedsPrecision, past the cap, at 10^5)
        u = make_u("log")
        for n in (10 ** 5, 10 ** 7):
            got, want = (brjuno_sum(x, 1, u, n, keep_terms=False)
                         for x in (exact.AdaptiveReal.from_exact(G), G))
            assert (got.value.hex(), got.tail_estimate, got.converged) == \
                (want.value.hex(), want.tail_estimate, want.converged)


class TestSurdRecord:
    def test_one_double_per_distinct_state(self, monkeypatch):
        # the golden mean at alpha = 1/2 repeats at once: 401 steps replay
        # the double and the weight of one state
        calls = []

        def counted(*args):
            calls.append(args)
            return exact._surd_double(*args)

        monkeypatch.setattr(alpha, "_surd_double", counted)
        for keep_terms in (False, True):
            res = brjuno_sum(G, Fraction(1, 2), make_u("log"), 400,
                             keep_terms=keep_terms, with_q_series=keep_terms)
            assert res.value == pytest.approx(-2 * LOG_G / G_F, rel=1e-12)
        assert len(calls) == 2 and calls[0] == calls[1]

    def test_one_double_and_one_log_per_distinct_state(self, monkeypatch):
        # B0 of a pool surd reads a few distinct by-excess states many
        # times over: each state's double and -log are taken once
        walks, doubles, logs = [], [], []

        class Walk(alpha._SurdWalk):
            def __init__(self, *args):
                super().__init__(*args)
                walks.append(self)

        def double(*args):
            doubles.append(args)
            return exact._surd_double(*args)

        def log(t, log=math.log):
            logs.append(t)
            return log(t)

        monkeypatch.setattr(brjuno, "_SurdWalk", Walk)
        monkeypatch.setattr(alpha, "_surd_double", double)
        monkeypatch.setattr(math, "log", log)
        states = steps = 0
        for x in benchmark_pool():
            del walks[:], doubles[:], logs[:]
            res = semi_brjuno(x, 10 ** 4)
            assert len(walks) == 1, x
            assert len(doubles) == len(logs) == len(walks[0].states), x
            states += len(walks[0].states)
            steps += len(res.terms)
        assert steps > 5 * states

    def test_orbit_without_repeat_walks_what_it_reads(self, monkeypatch):
        # semi_brjuno stops at beta* < 1e-22 after 200 of its 10^4 steps:
        # the walk takes as many integer states, and as many doubles, as
        # the sum reads steps
        walks, doubles = [], []

        class Walk(alpha._SurdWalk):
            def __init__(self, *args):
                super().__init__(*args)
                walks.append(self)

        def double(*args):
            doubles.append(args)
            return exact._surd_double(*args)

        monkeypatch.setattr(brjuno, "_SurdWalk", Walk)
        monkeypatch.setattr(alpha, "_surd_double", double)
        res = semi_brjuno(NO_REPEAT, 10 ** 4)
        assert len(walks[0].states) == len(doubles) == len(res.terms) == 200

    def test_memory_of_an_orbit_without_repeat(self):
        # one key per state in the walk, and a double and a weight per
        # state in the sum.  beta_prev is 0.0 from step 443 on, but rho^800
        # is not, so the sum reads all 801 states for the u of its tail
        n = 800
        tracemalloc.start()
        try:
            brjuno_sum(NO_REPEAT, Fraction(1, 2), make_u("log"), n,
                       keep_terms=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 235 * n

    @pytest.mark.parametrize("n", [40, 400, 4000])
    def test_no_absorption_for_a_negative_weight(self, monkeypatch, n):
        # -log(t) - 1/2 is negative at the golden mean, the whole period at
        # alpha = 1: half an ulp toward zero bounds nothing there, so the
        # exit is refused and the sum reads what the ledger's sum reads
        u = make_u("shifted log", eval_fn=lambda t: -math.log(t) - 0.5,
                   deriv_fn=lambda t: -1.0 / t)
        sups = []

        def period_sups(*args, real=brjuno._period_sups):
            sups.append(real(*args))
            return sups[-1]

        def hexes(res):
            return ([v.hex() for v in (res.value, res.tail_estimate,
                                       res.companion_q_series)], res.converged)

        monkeypatch.setattr(brjuno, "_period_sups", period_sups)
        fast = brjuno_sum(G, 1, u, n, keep_terms=False, with_q_series=True)
        ledger = brjuno_sum(G, 1, u, n, keep_terms=True, with_q_series=True)
        assert sups == [(math.inf, math.inf)]
        assert fast.value < 0
        assert hexes(fast) == hexes(ledger)

    def test_surd_below_the_double_range(self):
        x = Surd(1, 1, 10 ** 400, 2)
        for u in ("log", "inv_sqrt"):
            with pytest.raises(DomainError, match="x_0 is below 2"):
                brjuno_sum(x, 1, make_u(u), 5)


class TestFunctionalEquations:
    def test_alpha_equation(self):
        u = make_u("log")
        for x in (G_SQ, GAMMA, Fraction(13, 29)):
            for alpha in (Fraction(1, 2), Fraction(3, 4), 1):
                assert functional_residual("alpha_eq", x, alpha, u) < 1e-8

    def test_alpha_below_half_rejected(self):
        with pytest.raises(DomainError):
            functional_residual("alpha_eq", G_SQ, Fraction(1, 4),
                                make_u("log"))

    def test_b0_equation(self):
        for x in (G_SQ, GAMMA, Fraction(5, 7), Fraction(13, 29)):
            assert functional_residual("b0_eq", x) < 1e-8


class TestReports:
    def test_lemma3_bound_at_golden(self):
        bound = 2 / math.e * (3 + math.sqrt(2) * G_F / (1 - math.sqrt(G_F)))
        s = log_denominator_sum(G, 400)
        assert 0 < s <= bound

    def test_diff_report_b0_vs_qseries(self):
        corpus = rational_corpus(20, qmax=10 ** 4, seed=3) + surd_corpus(5)
        rep = diff_report("b0_vs_qseries", corpus, n_max=3000)
        assert rep.stable
        assert rep.observed_sup <= 25.0
        assert rep.corpus_size == len(corpus)
        assert rep.worst_input is not None

    def test_diff_report_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            diff_report("nope", [G])

    @pytest.mark.parametrize("corpus", [[Fraction(2, 7)], []])
    def test_alpha_vs_1_needs_alpha(self, corpus):
        with pytest.raises(ValueError, match="alpha_vs_1 needs an alpha"):
            diff_report("alpha_vs_1", corpus)

    def test_alpha_vs_1_defaults_to_the_log_weight(self):
        corpus = rational_corpus(10, qmax=10 ** 4, seed=3) + surd_corpus(3)
        alpha = Fraction(1, 5)
        got = diff_report("alpha_vs_1", corpus, alpha=alpha)
        want = diff_report("alpha_vs_1", corpus, alpha=alpha,
                           u=make_u("log"))
        assert [v.hex() for v in got.per_sample] == \
            [v.hex() for v in want.per_sample]
        assert got.observed_sup.hex() == want.observed_sup.hex()
        assert got.u_name == want.u_name == "log"

    def test_b1_vs_b0even_builds_one_weight(self, monkeypatch):
        built = []

        def counting_make_u(*args, **kwargs):
            built.append(args)
            return make_u(*args, **kwargs)

        monkeypatch.setattr(brjuno, "make_u", counting_make_u)
        corpus = rational_corpus(10, qmax=10 ** 4, seed=3) + surd_corpus(3)
        rep = diff_report("b1_vs_b0even", corpus)
        assert len(built) <= 1
        assert rep.u_name == "log"

    def test_reports_without_a_weight_name_none(self):
        rep = diff_report("logq_vs_loga", [G], u=make_u("inv_sqrt"))
        assert rep.u_name is None

    @pytest.mark.parametrize("kind", DIFF_KINDS)
    def test_only_alpha_vs_1_reports_alpha(self, kind):
        rep = diff_report(kind, [Fraction(2, 7)], alpha=Fraction(1, 5),
                          n_max=20)
        want = Fraction(1, 5) if kind == "alpha_vs_1" else None
        assert rep.alpha == want
        assert json.loads(rep.to_json())["alpha"] == \
            (None if want is None else "1/5")


class TestFigureRows:
    def test_header_and_length(self):
        rows = list(figure_rows(3, 0, 1, 9, 80, 400))
        assert rows[0] == ["x", "b0even", "b1"]
        assert len(rows) == 10

    @pytest.mark.parametrize("args", [
        (5, 0, 1, 9, 80, 400), (1, 1, 0, 9, 80, 400), (2, 0, 1, 1, 80, 400),
        (2, 0, 1, 8, 200, -1), (1, 0, 1, 8, -1, 200),
    ], ids=["no_such_figure", "empty_range", "one_point", "negative_digits",
            "negative_n"])
    def test_rejected(self, args):
        with pytest.raises(ValueError):
            figure_rows(*args)


def _hexed(fields):
    """_b1_terms' fields (value, terms, q-series, recent, last term) with
    each float as its float.hex, so -0.0, NaN and the last bit count."""
    value, terms, qs, recent, term = fields
    return (value.hex(), [(n, b.hex(), x.hex(), t.hex())
                          for n, b, x, t in terms],
            qs if qs is None else qs.hex(), list(map(float.hex, recent)),
            term if term is None else term.hex())


def _hexed_b0(fields):
    """_b0_terms' fields (value, istar, q*-series, beta*, terms, done), each
    float as its float.hex."""
    value, istar, qs, beta, terms, done = fields
    return (value.hex(), istar.hex(), qs.hex(), beta.hex(),
            [(n, b.hex(), x.hex(), t.hex()) for n, b, x, t in terms], done)


# the paper's 4096-point figure grid on [0, 1], plus seeded p/q, q <= 10^12
_RATIONAL_POINTS = [Fraction(p, q) for p, q in brjuno._figure_grid(
    Fraction(0), Fraction(1), 4096)] + rational_corpus(300, 10 ** 12, seed=31)


class TestRationalLoops:
    """The rational sums, _b1_terms and _b0_terms, step the integers of
    x_n = num/den by _rational_orbit's rule themselves: each must read the
    states the kernel walks."""

    @pytest.mark.parametrize("u_name", ["log", "inv_sqrt"])
    @pytest.mark.parametrize("a", ["1", "1/2", "1/5", "3/7", "1/100"])
    def test_b1_terms_match_the_kernel_walk(self, a, u_name):
        a, f = Fraction(a), make_u(u_name).eval
        r, s = a.numerator, a.denominator
        for x in _RATIONAL_POINTS:
            n0, eps0, _m = alpha._alpha_seed(x, a)
            num, den = eps0 * (x.numerator - n0 * x.denominator), x.denominator
            for n_max in (0, 1, 3, 200):
                for keep, with_q in ((False, False), (False, True),
                                     (True, False), (True, True)):
                    got = brjuno._b1_terms(num, den, r, s, f, n_max, keep,
                                           with_q)
                    want = brjuno._real_terms(
                        alpha._rational_orbit(num, den, r, s), f, n_max,
                        keep, with_q, None)
                    assert _hexed(got) == _hexed(want), (x, n_max, keep,
                                                         with_q)

    @pytest.mark.parametrize("n_max", [0, 1, 3, 10 ** 4])
    def test_b0_terms_read_the_kernel_states(self, n_max):
        for x in _RATIONAL_POINTS + [Fraction(4999, 5000),
                                     1 - Fraction(1, 2 * 10 ** 9)]:
            num, den = x.numerator % x.denominator, x.denominator
            states = []
            for p, q, _b, _eps, k in alpha._rational_orbit(num, den, 0, 1):
                c = q - p
                states += [(p - j * c) / (q - j * c)
                           for j in range(min(k, n_max + 1 - len(states)))]
                if len(states) > n_max:
                    break
            *_sums, terms, done = brjuno._b0_terms(num, den, n_max, True, False)
            assert [t[0] for t in terms] == list(range(len(terms)))
            assert [t[2].hex() for t in terms] == list(
                map(float.hex, states)), x
            assert done == (len(states) <= n_max)

    def test_b0_terms_read_the_same_logs_from_a_grid_table(self):
        # every pair of the 4096-point grid but the two nudged ends, whose
        # denominators divide 4095; 3 and 200 cut inside runs of 2's, and
        # 10^4 reads whole orbits
        logs = brjuno._log_table(4095)
        grid = [(p, q) for p, q in brjuno._figure_grid(Fraction(0),
                                                       Fraction(1), 4096)
                if q < len(logs)]
        assert len(grid) == 4094
        for p, q in grid:
            for n_max in (0, 1, 3, 200, 10 ** 4):
                for keep, with_q in ((False, False), (False, True),
                                     (True, False), (True, True)):
                    args = (p % q, q, n_max, keep, with_q)
                    got = brjuno._b0_terms(*args, logs)
                    want = brjuno._b0_terms(*args)
                    assert _hexed_b0(got) == _hexed_b0(want), (p, q, n_max,
                                                               keep, with_q)

    def test_log_table_is_bounded(self):
        assert brjuno._log_table(brjuno._TABLE - 1)[1:] == [
            math.log(k) for k in range(1, brjuno._TABLE)]
        assert brjuno._log_table(brjuno._TABLE) == []


def test_all_lists_supported_names():
    for name in alphacf.__all__:
        assert hasattr(alphacf, name), name
    assert "figure_rows" in alphacf.__all__
    assert "Fraction" not in alphacf.__all__
    assert alphacf.Fraction is Fraction   # still importable


def test_removed_names_are_gone():
    # b0_qseries was semi_brjuno(with_q_series=True); SideMismatch could
    # not be raised once minus_to_regular infers the side
    for name in ("b0_qseries", "SideMismatch"):
        assert name not in alphacf.__all__
        assert not hasattr(alphacf, name)
