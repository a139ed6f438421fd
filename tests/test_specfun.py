import math
import sys

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

    def test_infinite_argument_raises(self):
        # scipy.special.j0 gives nan there, which reached rho silently
        for x in (math.inf, -math.inf, np.array([1.0, math.inf])):
            with pytest.raises(ValueError, match="finite"):
                specfun.bessel_j0(x)
        assert math.isnan(specfun.bessel_j0(math.nan))

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


# --- the ports keep scipy.special's bits -------------------------------------

N_BRANCH = 100_000


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _branch_points(lo, hi, seed):
    """N_BRANCH points in (lo, hi]: half log-uniform, half uniform."""
    rng = np.random.default_rng(seed)
    half = N_BRANCH // 2
    logs = np.exp(rng.uniform(math.log(lo), math.log(hi), half))
    lin = hi - (hi - lo) * rng.random(N_BRANCH - half)
    return np.clip(np.concatenate((logs, lin)), np.nextafter(lo, math.inf), hi)


def _assert_ported(mine, want, xs):
    """mine agrees with want bit for bit on the array xs and on each of its
    entries as a Python float."""
    expect = _bits(want(xs))
    assert np.array_equal(_bits(mine(xs)), expect)
    scalars = [mine(x) for x in xs.tolist()]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(_bits(scalars), expect)


def _edges(*points):
    out = []
    for p in points:
        out += [np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)]
    return np.array(out)


def exp1(x):
    """The E1 port, which is scalar, over a float or an array."""
    if isinstance(x, float):
        return specfun._exp1(x)
    return np.array([specfun._exp1(v) for v in x.tolist()])


class TestPortsMatchScipy:
    @pytest.mark.parametrize("lo, hi", [(1e-300, 2.0), (2.0, 1e300)])
    def test_k1e_branch(self, lo, hi):
        _assert_ported(specfun.bessel_k1_scaled, special.k1e, _branch_points(lo, hi, 1))

    def test_k1e_edges(self):
        xs = np.concatenate((_edges(2.0, 1e-300, 1e300), [sys.float_info.min]))
        _assert_ported(specfun.bessel_k1_scaled, special.k1e, xs)

    @pytest.mark.parametrize("lo, hi", [(5e-324, 1.0), (1.0, 700.0)])
    def test_exp1_branch(self, lo, hi):
        _assert_ported(exp1, special.exp1, _branch_points(lo, hi, 2))

    def test_exp_scaled_gamma_upper_0_keeps_the_product(self):
        # below the continued-fraction switch at 30: numpy's exp times E1
        xs = np.concatenate((_branch_points(5e-324, 30.0, 3), _edges(1.0, 30.0)[:-1],
                             [5e-324]))
        _assert_ported(specfun.exp_scaled_gamma_upper_0,
                       lambda x: np.exp(x) * special.exp1(x), xs)

    def test_exp1_edges(self):
        xs = np.concatenate((_edges(1.0, 30.0), [5e-324]))
        _assert_ported(exp1, special.exp1, xs)

    @pytest.mark.parametrize("lo, hi", [(1e-300, 5.0), (5.0, 1e300)])
    def test_j0_branch(self, lo, hi):
        xs = _branch_points(lo, hi, 4)
        xs[::2] *= -1.0
        _assert_ported(specfun.bessel_j0, special.j0, xs)

    def test_j0_edges(self):
        xs = _edges(1e-5, 5.0, 1e300)
        _assert_ported(specfun.bessel_j0, special.j0, np.concatenate((xs, -xs, [0.0])))

    def test_shapes_are_kept(self):
        xs = np.linspace(0.5, 40.0, 12).reshape(3, 4)
        for fn in (specfun.bessel_j0, specfun.bessel_k1_scaled,
                   specfun.exp_scaled_gamma_upper_0):
            assert fn(xs).shape == (3, 4)
            assert fn(np.array(2.5)) == fn(2.5)


class TestSubnormalK1:
    @pytest.mark.parametrize("x", [5e-324, 1e-310, np.nextafter(sys.float_info.min, 0.0)])
    def test_subnormal_argument_raises(self, x):
        # scipy.special.k1e gives nan at 5e-324 (0.5 * x underflows) and
        # inf further up, where 1/x overflows
        with pytest.raises(ValueError, match="positive and normal"):
            specfun.bessel_k1_scaled(x)
        with pytest.raises(ValueError, match="positive and normal"):
            specfun.bessel_k1_scaled(np.array([1.0, x]))

    def test_smallest_normal_is_finite(self):
        assert math.isfinite(specfun.bessel_k1_scaled(sys.float_info.min))
