import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from relaysense import specfun

import oracles


GRID_50 = np.geomspace(1e-3, 100.0, 50)


def k1(x):
    """K1 as the library evaluates it: through the exp-scaled kernel."""
    return math.exp(-x) * specfun.bessel_k1_scaled(x)


def gamma_upper_0(x):
    """Gamma(0, x) as the library evaluates it: through the exp-scaled kernel."""
    return math.exp(-x) * specfun.exp_scaled_gamma_upper_0(x)


class TestBesselJ0:
    def test_matches_quadrature_on_log_grid(self):
        for x in GRID_50:
            assert specfun.bessel_j0(x) == pytest.approx(oracles.quad_j0(x), abs=1e-12)

    def test_negative_argument_symmetry(self):
        for x in (0.3, 2.0, 17.5):
            assert specfun.bessel_j0(-x) == pytest.approx(specfun.bessel_j0(x), abs=1e-14)

    def test_first_zero(self):
        z = 2.404825557695773
        assert abs(specfun.bessel_j0(z)) < 1e-9
        # bracketing sign change pins the zero location itself
        assert specfun.bessel_j0(z - 1e-6) * specfun.bessel_j0(z + 1e-6) < 0

    @given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_one(self, x):
        assert abs(specfun.bessel_j0(x)) <= 1.0 + 1e-15


class TestBesselK1:
    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.bessel_k1_scaled(0.0)
        with pytest.raises(ValueError):
            specfun.bessel_k1_scaled(-1.0)

    def test_matches_quadrature_relative(self):
        for x in GRID_50:
            assert k1(x) == pytest.approx(oracles.quad_k1(x), rel=1e-10)

    def test_small_argument_pole(self):
        x = 1e-8
        assert x * k1(x) == pytest.approx(1.0, abs=1e-6)

    def test_asymptotic_form_at_10(self):
        x = 10.0
        asym = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (1.0 + 3.0 / (8.0 * x))
        assert k1(x) == pytest.approx(asym, rel=0.005)

    def test_scaled_variant_consistency(self):
        for x in (1e-4, 0.3, 5.0, 80.0):
            want = special.k1(x) * math.exp(x)
            assert specfun.bessel_k1_scaled(x) == pytest.approx(want, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_positive_and_decreasing(self, x):
        a = k1(x)
        b = k1(x * 1.01)
        assert a > 0
        assert b < a


class TestGammaUpper0:
    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.exp_scaled_gamma_upper_0(0.0)
        with pytest.raises(ValueError):
            specfun.exp_scaled_gamma_upper_0(-2.0)

    def test_matches_quadrature(self):
        for x in np.geomspace(1e-3, 30.0, 50):
            assert gamma_upper_0(x) == pytest.approx(
                oracles.quad_gamma_upper_0(x), rel=1e-10)

    def test_deep_tail(self):
        assert gamma_upper_0(50.0) < 1e-20

    def test_negated_ei_identity(self):
        for x in np.geomspace(1e-3, 30.0, 50):
            assert gamma_upper_0(x) == pytest.approx(-special.expi(-x), rel=1e-9)

    @given(st.floats(min_value=1.0, max_value=600.0))
    @settings(max_examples=60, deadline=None)
    def test_tail_bound(self, x):
        assert gamma_upper_0(x) < math.exp(-x) / x


class TestExpScaledGammaUpper0:
    def test_matches_direct_product_midrange(self):
        for x in np.geomspace(1e-3, 30.0, 50):
            want = math.exp(x) * oracles.quad_gamma_upper_0(x)
            assert specfun.exp_scaled_gamma_upper_0(x) == pytest.approx(want, rel=1e-9)

    def test_branch_seam_is_smooth(self):
        # gap across the switchover must be the function's own variation
        # (derivative ~ -1e-3 here), not a numerical jump
        lo = specfun.exp_scaled_gamma_upper_0(29.999999)
        hi = specfun.exp_scaled_gamma_upper_0(30.000001)
        assert hi < lo
        assert hi == pytest.approx(lo, rel=1e-6)

    def test_large_argument_asymptote(self):
        # e^x Gamma(0,x) ~ (1/x)(1 - 1/x + 2/x^2) for large x
        for x in (1e3, 1e6, 1e9):
            want = (1.0 - 1.0 / x + 2.0 / x**2) / x
            assert specfun.exp_scaled_gamma_upper_0(x) == pytest.approx(want, rel=1e-6)

    def test_survives_where_plain_product_underflows(self):
        val = specfun.exp_scaled_gamma_upper_0(1e4)
        assert 0.0 < val < 1e-3

    @given(st.floats(min_value=1e-3, max_value=1e8))
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_x(self, x):
        assert specfun.exp_scaled_gamma_upper_0(x * 1.01) < specfun.exp_scaled_gamma_upper_0(x)
