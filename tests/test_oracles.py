"""Reference oracle tests.

Claims:
    - closed-form call/put/digital prices hit textbook values, limits, and
      put-call parity to 1e-10; a digital at a level <= 0 is the bond
    - the quadrature expectation is exact on polynomials and stable under
      node doubling
    - the quadrature tilt optimum reproduces the closed-form exponential
      answer, respects symmetry, and agrees with the sampled optimizer to
      within its asymptotic error
"""

import numpy as np
import pytest
from pytest import approx

from quadrature import BracketFailure, QuadratureSpec, gaussian_expectation, quadrature_theta_star
from tiltmc import (
    Payoff,
    RngStream,
    bs_call_price,
    bs_digital_price,
    bs_put_price,
    draw_samples,
    estimate_theta_covariance,
    identity_map,
    newton_minimize,
    precompute_weights,
)


class TestClosedForms:
    def test_textbook_call(self):
        assert bs_call_price(100.0, 100.0, 0.05, 0.2, 1.0) == approx(10.4506, abs=1e-4)

    def test_call_small_vol_limit(self):
        price = bs_call_price(100.0, 90.0, 0.05, 1e-9, 1.0)
        assert price == approx(np.exp(-0.05) * (100.0 * np.exp(0.05) - 90.0), abs=1e-9)

    def test_call_tiny_strike_is_forward_value(self):
        assert bs_call_price(100.0, 1e-12, 0.05, 0.2, 1.0) == approx(100.0, abs=1e-9)

    def test_digital_reference_value(self):
        assert bs_digital_price(100.0, 140.0, 0.05, 0.2, 1.0) == approx(0.05968, abs=5e-5)

    def test_digital_tiny_level_pays_discount_bond(self):
        assert bs_digital_price(100.0, 1e-12, 0.05, 0.2, 1.0) == approx(np.exp(-0.05), abs=1e-12)

    @pytest.mark.parametrize("level", [-5.0, 0.0])
    def test_digital_level_at_or_below_zero_pays_discount_bond(self, level):
        # The terminal value is positive, so it always exceeds such a level.
        assert bs_digital_price(100.0, level, 0.05, 0.2, 1.0) == np.exp(-0.05)

    def test_digital_at_forward_small_vol(self):
        # d2 = -vol sqrt(T)/2 at the forward, so the price tends to half the
        # discount bond from below as vol shrinks.
        rate, maturity = 0.05, 1.0
        forward = 100.0 * np.exp(rate * maturity)
        for vol in (0.05, 0.01, 0.001):
            price = bs_digital_price(100.0, forward, rate, vol, maturity)
            expected = np.exp(-rate * maturity) * 0.5
            assert price == approx(expected, abs=np.exp(-rate) * vol)

    def test_put_call_parity(self):
        for strike in (60.0, 100.0, 145.0):
            call = bs_call_price(100.0, strike, 0.05, 0.25, 2.0)
            put = bs_put_price(100.0, strike, 0.05, 0.25, 2.0)
            parity = 100.0 - strike * np.exp(-0.05 * 2.0)
            assert call - put == approx(parity, abs=1e-10)


class TestGaussianExpectation:
    def test_moments(self):
        spec = QuadratureSpec(nodes=64)
        assert gaussian_expectation(lambda y: np.ones_like(y), spec) == approx(1.0, abs=1e-13)
        assert gaussian_expectation(lambda y: y, spec) == approx(0.0, abs=1e-13)
        assert gaussian_expectation(lambda y: y**2, spec) == approx(1.0, abs=1e-12)
        assert gaussian_expectation(lambda y: y**4, spec) == approx(3.0, abs=1e-11)

    def test_lognormal_mean(self):
        spec = QuadratureSpec(nodes=96)
        assert gaussian_expectation(lambda y: np.exp(0.3 * y), spec) == approx(
            np.exp(0.045), rel=1e-12
        )

    def test_two_dimensional_product(self):
        spec = QuadratureSpec(dim=2, nodes=48)
        value = gaussian_expectation(lambda p: p[:, 0] ** 2 * np.exp(0.1 * p[:, 1]), spec)
        assert value == approx(np.exp(0.005), rel=1e-10)

    def test_scale_does_not_change_smooth_integrals(self):
        base = QuadratureSpec(nodes=96)
        wide = QuadratureSpec(nodes=96, scale=1.5)
        f = lambda y: np.exp(-0.5 * y) + y**2
        assert gaussian_expectation(f, wide) == approx(gaussian_expectation(f, base), rel=1e-9)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(dim=3)
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=16)


class TestThetaStar:
    def test_exponential_closed_form(self):
        theta, v_star = quadrature_theta_star(lambda y: np.exp(0.2 * y))
        assert theta == approx(0.2, abs=1e-8)
        assert v_star == approx(np.exp(0.04), rel=1e-9)

    def test_constant_payoff_symmetric(self):
        # The proxy is exactly e^{theta^2} here: flat to double precision
        # near 0, so value-based search resolves theta* only to ~sqrt(eps).
        theta, v_star = quadrature_theta_star(lambda y: np.ones_like(y))
        assert theta == approx(0.0, abs=1e-7)
        assert v_star == approx(1.0, rel=1e-10)

    def test_even_payoff_has_zero_tilt(self):
        theta, _ = quadrature_theta_star(lambda y: y**2)
        assert theta == approx(0.0, abs=1e-7)

    def test_node_doubling_stability(self):
        # Smooth payoffs: the rule is spectral and doubling barely moves
        # the optimum.
        spec = QuadratureSpec(nodes=64)
        f = lambda y: np.exp(0.4 * y) + 0.1 * y**2 + 0.5
        t1, _ = quadrature_theta_star(f, spec)
        t2, _ = quadrature_theta_star(f, spec.doubled())
        assert abs(t1 - t2) < 1e-6

    def test_node_doubling_stability_exponential(self):
        spec = QuadratureSpec(nodes=64)
        t1, _ = quadrature_theta_star(lambda y: np.exp(0.2 * y), spec)
        t2, _ = quadrature_theta_star(lambda y: np.exp(0.2 * y), spec.doubled())
        assert abs(t1 - t2) < 1e-8

    def test_bracket_failure_when_minimum_escapes(self):
        with pytest.raises(BracketFailure):
            quadrature_theta_star(lambda y: np.exp(3.0 * y), scan=(-1.0, 1.0))

    def test_sampled_optimizer_agrees_with_quadrature(self):
        # Empirical minimizer over 10^6 draws vs the quadrature optimum,
        # within 4 plug-in standard errors.
        payoff = Payoff(1, lambda x: np.exp(0.2 * x[..., 0]) + 0.1)
        theta_star, _ = quadrature_theta_star(lambda y: np.exp(0.2 * y) + 0.1)
        block = draw_samples(RngStream(2025, 0), 1_000_000, 1)
        table = precompute_weights(block, payoff)
        drift = identity_map(1)
        result = newton_minimize(table, drift)
        gamma = estimate_theta_covariance(table, drift, result.theta)[0, 0]
        band = 4.0 * np.sqrt(gamma / table.n)
        assert result.theta[0] == approx(theta_star, abs=band)
