import math

import pytest

from alphacf.holder import InsufficientScales, estimate_holder


def sample(f, n=4096):
    return [f(k / (n - 1)) for k in range(n)]


def test_lipschitz_function():
    est = estimate_holder(sample(lambda x: abs(x - 0.5)))
    assert est.exponent == pytest.approx(1.0, abs=0.1)
    assert est.r2 > 0.99


def test_square_root_cusp():
    est = estimate_holder(sample(lambda x: math.sqrt(abs(x - 0.5))))
    assert est.exponent == pytest.approx(0.5, abs=0.1)


def test_cusp_position_does_not_matter():
    for c in (0.1, 0.37, 0.9):
        est = estimate_holder(sample(lambda x: math.sqrt(abs(x - c))))
        assert est.exponent == pytest.approx(0.5, abs=0.1)


def test_weierstrass_like_exponent():
    # sum 2^(-hk) cos(2^k x) has Hoelder exponent h
    h = 0.7
    xs = [k / 8191 for k in range(8192)]
    v = [sum(2.0 ** (-h * k) * math.cos(2.0 ** k * 2 * math.pi * x)
             for k in range(1, 16)) for x in xs]
    est = estimate_holder(v)
    assert est.exponent == pytest.approx(h, abs=0.15)


def test_too_few_samples():
    with pytest.raises(InsufficientScales):
        estimate_holder([0.0, 1.0] * 10)


def test_constant_input():
    with pytest.raises(InsufficientScales):
        estimate_holder([3.0] * 4096)


def test_nan_sample_rejected():
    # a NaN window has no oscillation, so no scale is usable
    values = sample(lambda x: abs(x - 0.5))
    values[100] = math.nan
    with pytest.raises(InsufficientScales):
        estimate_holder(values)


@pytest.mark.parametrize("bad", [math.inf, -math.inf], ids=["inf", "-inf"])
def test_infinite_sample_rejected(bad):
    # an infinite sample makes an infinite oscillation and a NaN slope,
    # which is no JSON number
    values = sample(lambda x: abs(x - 0.5))
    values[100] = bad
    with pytest.raises(InsufficientScales, match="not finite"):
        estimate_holder(values)
