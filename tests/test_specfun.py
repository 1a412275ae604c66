"""Exponential-integral tests against an independent quadrature oracle.

The oracle integrates the defining expression E1(x) = int_1^inf e^{-tx}/t dt
with adaptive quadrature (after the substitution u = t x for small x, which
splits off the near-singular head). It was written before the closed-form
implementations and shares no code with them.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from misolim import specfun
from misolim.specfun import exp_integral_e1, one_minus_x_ex_e1


def e1_quadrature(x: float) -> float:
    """Adaptive quadrature of the defining integral, ~1e-13 relative."""
    if x >= 1.0:
        val, _ = quad(lambda t: math.exp(-t * x) / t, 1.0, np.inf,
                      epsabs=1e-300, epsrel=1e-13, limit=300)
        return val
    # u = t x maps the integral to int_x^inf e^{-u}/u du; split at u = 1.
    head, _ = quad(lambda u: math.exp(-u) / u, x, 1.0,
                   epsabs=0.0, epsrel=1e-13, limit=300)
    tail, _ = quad(lambda u: math.exp(-u) / u, 1.0, np.inf,
                   epsabs=1e-300, epsrel=1e-13, limit=300)
    return head + tail


def one_minus_quadrature(x: float) -> float:
    return 1.0 - x * math.exp(x) * e1_quadrature(x)


class TestExpIntegralE1:
    # Frozen from e1_quadrature (matches published tables to all digits).
    @pytest.mark.parametrize("x,expected", [
        (1.0, 0.219383934395520),
        (0.5, 0.559773594776160),
        (10.0, 4.15696892968532e-6),
    ])
    def test_frozen_values(self, x, expected):
        assert exp_integral_e1(x) == pytest.approx(expected, rel=1e-12)
        assert e1_quadrature(x) == pytest.approx(expected, rel=1e-11)

    def test_agreement_with_oracle(self):
        for x in np.logspace(-6, math.log10(50.0), 200):
            assert exp_integral_e1(x) == pytest.approx(
                e1_quadrature(x), rel=1e-10), f"x={x}"

    def test_underflow_region(self):
        assert exp_integral_e1(700.5) == 0.0
        assert exp_integral_e1(1e9) == 0.0

    def test_wide_range_finite(self):
        for x in np.logspace(-8, math.log10(699.0), 50):
            v = exp_integral_e1(x)
            assert math.isfinite(v) and v > 0.0

    @pytest.mark.parametrize("x", [0.0, -1.0, float("nan")])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            exp_integral_e1(x)

    def test_derivative_identity(self):
        # d/dx E1(x) = -e^{-x}/x, via central differences
        for x in (0.1, 1.0, 5.0):
            h = x * 1e-5
            fd = (exp_integral_e1(x + h) - exp_integral_e1(x - h)) / (2 * h)
            assert fd == pytest.approx(-math.exp(-x) / x, rel=1e-6)

    def test_strictly_decreasing(self):
        grid = np.logspace(-6, 2, 120)
        vals = [exp_integral_e1(x) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestOneMinusXExE1:
    # Frozen from one_minus_quadrature.
    @pytest.mark.parametrize("x,expected", [
        (1.0, 0.403652637676806),
        (100.0, 0.00980577132669815),
    ])
    def test_frozen_values(self, x, expected):
        assert one_minus_x_ex_e1(x) == pytest.approx(expected, rel=1e-10)
        assert one_minus_quadrature(x) == pytest.approx(expected, rel=1e-9)

    def test_small_x_limit(self):
        assert one_minus_x_ex_e1(1e-8) >= 1.0 - 3e-7

    def test_agreement_with_oracle(self):
        for x in np.logspace(-6, math.log10(50.0), 200):
            assert one_minus_x_ex_e1(x) == pytest.approx(
                one_minus_quadrature(x), rel=1e-10), f"x={x}"

    def test_strictly_decreasing_in_range(self):
        grid = np.logspace(-6, 8, 150)
        vals = [one_minus_x_ex_e1(x) for x in grid]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_no_overflow_for_huge_argument(self):
        # naive composition would overflow in e^x here
        v = one_minus_x_ex_e1(1e12)
        assert v == pytest.approx(1e-12, rel=1e-6)

    def test_large_x_bracketing(self):
        # classic bound: 1 - 1/x < x e^x E1(x) < 1 for x >= 2
        for x in np.logspace(math.log10(2.0), 6, 60):
            xexe1 = 1.0 - one_minus_x_ex_e1(x)
            assert 1.0 - 1.0 / x < xexe1 < 1.0

    @pytest.mark.parametrize("x", [0.0, -0.5, float("nan")])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            one_minus_x_ex_e1(x)

    def test_asymptotic_range(self):
        # x f(x) = 1 - 2/x + 6/x^2 - ...; beyond about 1e16 the continued
        # fraction used to raise RuntimeError for one x in eight. The bound
        # allows for the rounding of x f(x) itself.
        rng = np.random.default_rng(2024)
        for x in 10.0 ** rng.uniform(8.0, 300.0, 2000):
            f = one_minus_x_ex_e1(x)
            assert abs(x * f - 1.0) <= 3.0 / x + 4 * np.finfo(float).eps, x

    def test_continuous_at_asymptotic_switch(self):
        x = specfun._ASYMPTOTIC_X
        below = specfun._en_cf(np.nextafter(x, 0.0), 2)
        assert one_minus_x_ex_e1(x) == pytest.approx(below, rel=4e-16)
        assert specfun._en_cf(x, 2) == pytest.approx(one_minus_x_ex_e1(x),
                                                     rel=4e-16)
