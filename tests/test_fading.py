import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from relaysense import fading
from relaysense.fading import (
    LinkSet,
    PrimaryModel,
    activity_mixture,
    max_exp_expectation,
    partial_fraction_weights,
)

import oracles


distinct_means = st.lists(
    st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=6,
).filter(lambda m: min(abs(a - b) for a, b in itertools.combinations(m + [0.0], 2)) > 1e-3
         if len(m) > 1 else True)


def thinned_cdf(x, means, scale=1.0, duty=1.0):
    """CDF of the thinned interference sum, through its expanded law."""
    return activity_mixture(means, duty, scale).cdf(x)


class TestPartialFractionWeights:
    def test_two_means(self):
        w = partial_fraction_weights(np.array([1.0, 2.0]))
        assert w[0] == pytest.approx(-1.0, rel=1e-14)
        assert w[1] == pytest.approx(2.0, rel=1e-14)

    @given(distinct_means)
    @settings(max_examples=60, deadline=None)
    def test_weights_sum_to_one(self, means):
        w = partial_fraction_weights(np.asarray(means))
        assert float(np.sum(w)) == pytest.approx(1.0, rel=1e-8, abs=1e-8)

    def test_single_mean(self):
        w = partial_fraction_weights(np.array([3.0]))
        assert w.shape == (1,)
        assert w[0] == 1.0


class TestActivityMixture:
    def test_atom_mass(self):
        law = activity_mixture([1.0, 2.0, 3.0], 0.5, 1.0)
        assert law.atom == pytest.approx(0.125, rel=1e-14)
        assert sum(len(idx) for _, idx, _ in law.groups) == 7

    def test_probabilities_total_one(self):
        law = activity_mixture([1.0, 2.0, 4.0, 8.0], 0.3, 1.0)
        total = law.atom + sum(p * len(idx) for p, idx, _ in law.groups)
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_always_on(self):
        law = activity_mixture([1.0, 2.0], 1.0, 1.0)
        assert law.atom == 0.0
        assert len(law.groups) == 1
        p, idx, _ = law.groups[0]
        assert p == pytest.approx(1.0)
        # the law holds its means in descending order, whatever the input order
        assert law.means[idx].tolist() == [[2.0, 1.0]]

    def test_groups_follow_combinations_order(self):
        # the means come scaled and in descending order; the weights are
        # those of the raw means, over the subsets of that order
        law = activity_mixture([1.0, 2.0, 4.0, 8.0], 0.3, 3.0)
        means = [8.0, 4.0, 2.0, 1.0]
        assert law.means.tolist() == [3.0 * m for m in means]
        for r, (_, idx, w) in enumerate(law.groups, start=1):
            rows = list(itertools.combinations(range(len(means)), r))
            subs = [[means[k] for k in row] for row in rows]
            assert idx.tolist() == [list(row) for row in rows]
            assert law.means[idx].tolist() == [[3.0 * m for m in sub] for sub in subs]
            assert w.shape == (len(rows), r)
            for row, sub in zip(w, subs):
                assert row.tolist() == partial_fraction_weights(sub).tolist()

    def test_index_rows_are_built_once_per_size_and_shared(self):
        # every law and peak gain at one L reads the same read-only rows;
        # only a new L builds them again, and only the last L is kept
        fading._subset_rows.cache_clear()
        means = [1.0, 2.0, 4.0, 8.0, 16.0]
        laws = [activity_mixture(means, duty, 1.0) for duty in (0.3, 0.7)]
        max_exp_expectation(means)
        assert fading._subset_rows.cache_info().misses == 1
        for (_, a, _), (_, b, _) in zip(*(law.groups for law in laws)):
            assert a is b and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1
        activity_mixture(means[:3], 0.5, 1.0)
        activity_mixture(means, 0.5, 1.0)
        info = fading._subset_rows.cache_info()
        assert (info.misses, info.currsize) == (3, 1)

    @pytest.mark.parametrize("shift", [0.9, 1.0, 1.1])
    @pytest.mark.parametrize("knots", [2, 50, 1000])
    def test_ks_bound_exceeds_the_distance_by_at_most_a_cell(self, knots, shift):
        # criterion 6 asserts `oracles.ks_bound` in place of the exact
        # Kolmogorov distance; the draws' exact zeros meet the law's atom,
        # and draws of a narrower or wider law put the ECDF on one side of
        # the CDF, where one of the bound's two terms must cover the gap
        means, duty, scale = [1.0, 2.0, 4.0], 0.4, 3.0
        law = activity_mixture(means, duty, scale)

        def cdf(xs):
            return [law.cdf(x) for x in xs]

        n = 4000
        x = oracles.sample_thinned_sum(np.random.default_rng(knots), n, means, scale * shift,
                                       duty)
        exact = oracles.ks_distance(x, cdf, atom0=(1.0 - duty) ** len(means))
        bound = oracles.ks_bound(x, cdf, knots)
        # a cell holds at most this many draws strictly inside it
        cell = math.ceil((n - 1) / (knots - 1)) - 1
        assert exact <= bound <= exact + cell / n + 1e-12


class TestHypoexp:
    def test_cdf_at_zero_equals_atom(self):
        means, duty = [1.0, 2.0, 3.0], 0.5
        assert thinned_cdf(0.0, means, duty=duty) == pytest.approx((1 - duty) ** 3, rel=1e-14)
        # six means 1.2x apart: evaluating the cancelling partial-fraction sum
        # at x = 0 gave -8.5e-14, a negative probability; the atom is exact
        law = activity_mixture(1.2 ** np.arange(6), 1.0, 1.0)
        assert law.atom == 0.0
        assert law.cdf(0.0) == law.atom

    def test_survival_integrates_to_mean(self):
        # E[X] = duty * sum(means) for the thinned sum
        means, duty = [0.7, 1.3, 2.9], 0.4
        val, _ = integrate.quad(lambda x: 1.0 - thinned_cdf(x, means, duty=duty),
                                0.0, np.inf, limit=400)
        assert val == pytest.approx(duty * sum(means), rel=1e-8)

    def test_single_source_always_on_is_exponential(self):
        m = 1.7
        for x in (0.1, 1.0, 5.0):
            assert thinned_cdf(x, [m], duty=1.0) == pytest.approx(
                -math.expm1(-x / m), rel=1e-12)

    def test_scale_parameter(self):
        means, duty, s = [1.0, 2.0], 0.6, 3.5
        for x in (0.5, 2.0, 10.0):
            assert thinned_cdf(x, means, scale=s, duty=duty) == pytest.approx(
                thinned_cdf(x / s, means, duty=duty), rel=1e-12)

    def test_matches_empirical_two_sources(self):
        means, duty, n = [1.0, 2.5], 0.5, 10**6
        rng = np.random.default_rng(42)
        draws = oracles.sample_thinned_sum(rng, n, means, 1.0, duty)
        for x in (0.5, 1.5, 4.0):
            emp = float(np.mean(draws <= x))
            se = math.sqrt(emp * (1 - emp) / n)
            assert abs(thinned_cdf(x, means, duty=duty) - emp) < 3 * se

    def test_cdf_limits(self):
        means = [0.5, 1.5, 3.0]
        assert thinned_cdf(200.0, means, duty=0.5) == pytest.approx(1.0, abs=1e-9)

    @given(distinct_means, st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.01, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_cdf_monotone(self, means, duty, x):
        lo = thinned_cdf(x, means, duty=duty)
        hi = thinned_cdf(x * 1.1, means, duty=duty)
        assert 0.0 <= lo <= hi <= 1.0 + 1e-12

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            thinned_cdf(-0.1, [1.0, 2.0], duty=0.5)


class TestMaxExp:
    def test_frozen_two_means(self):
        # E[max] = 1 + 2 - 1/(1/1 + 1/2) = 7/3
        assert max_exp_expectation([1.0, 2.0]) == pytest.approx(7.0 / 3.0, rel=1e-12)

    def test_single_mean(self):
        assert max_exp_expectation([4.2]) == pytest.approx(4.2, rel=1e-14)

    def test_iid_harmonic_series(self):
        # iid means m: E[max of n] = m * H_n
        m, n = 2.0, 5
        h = sum(1.0 / k for k in range(1, n + 1))
        # iid draws share a mean, which the inclusion-exclusion handles
        assert max_exp_expectation([m] * n) == pytest.approx(m * h, rel=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_exp_expectation([])

    def test_population_cap(self):
        with pytest.raises(ValueError):
            max_exp_expectation([1.0] * 21)

    def test_survival_integrates_to_mean(self):
        # E[max] = integral of 1 - prod(1 - exp(-x/m))
        means = np.array([0.5, 1.1, 2.3, 4.7])
        val, _ = integrate.quad(lambda x: 1.0 - np.prod(-np.expm1(-x / means)),
                                0.0, np.inf, limit=400)
        assert val == pytest.approx(max_exp_expectation(means), rel=1e-8)

    @given(distinct_means)
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, means):
        fwd = max_exp_expectation(means)
        rev = max_exp_expectation(list(reversed(means)))
        assert fwd == pytest.approx(rev, rel=1e-10)

    def test_matches_empirical(self):
        means, n = [1.0, 2.0, 3.0], 10**6
        rng = np.random.default_rng(7)
        draws = oracles.sample_max_exp(rng, n, means)
        se = float(np.std(draws)) / math.sqrt(n)
        assert abs(max_exp_expectation(means) - float(np.mean(draws))) < 3 * se


class TestLinkSet:
    def base(self, **kw):
        args = dict(
            d_src_relay=[0.1, 0.12],
            d_relay_dst=[0.1, 0.12],
            d_pu_src=[0.4, 0.41],
            d_pu_relay=[[0.4, 0.41], [0.42, 0.43]],
            d_pu_dst=[0.4, 0.41],
        )
        args.update(kw)
        return LinkSet(**args)

    def test_counts(self):
        ls = self.base()
        assert ls.n_relays == 2
        assert ls.n_primary == 2

    def test_gains(self):
        ls = self.base()
        assert ls.g_src_relay[0] == pytest.approx(0.1 ** -4.0, rel=1e-14)
        np.testing.assert_allclose(ls.g_pu_src, np.array([0.4, 0.41]) ** -4.0)

    def test_unit_distance_gain(self):
        assert self.base(d_src_relay=[1.0, 0.12]).g_src_relay[0] == 1.0

    def test_inverse_power_gain(self):
        assert self.base(d_src_relay=[0.5, 0.12]).g_src_relay[0] \
            == pytest.approx(16.0, rel=1e-14)
        assert self.base(d_src_relay=[2.0, 0.12], alpha=3.0).g_src_relay[0] \
            == pytest.approx(0.125, rel=1e-14)

    def test_rejects_nonpositive_distance(self):
        for d in (0.0, -1.0):
            with pytest.raises(ValueError, match=r"links\.d_src_relay"):
                self.base(d_src_relay=[d, 0.12])

    def test_gain_arrays_are_read_only(self):
        ls = self.base()
        for g in (ls.g_pu_src, ls.g_pu_dst, ls.g_pu_relay[0], ls.g_pu_relay[1]):
            assert not g.flags.writeable
            with pytest.raises(ValueError):
                g[0] = 1.0

    def test_canonical_rows_are_the_family_rows_sorted_once(self):
        # the source's row lists relay 0's and the destination's primaries
        # the other way round: a family of its own, with the same sorted row
        ls = self.base(d_pu_src=[0.41, 0.4], d_pu_relay=[[0.4, 0.43], [0.41, 0.42]])
        assert ls.family == (0, 1, 2, 1)
        assert len(ls.canonical_gains) == len(ls.family_gains) == 3
        for row, canon in zip(ls.family_gains, ls.canonical_gains):
            assert canon.tolist() == sorted(row.tolist(), reverse=True)
            assert not canon.flags.writeable
            # the closed forms read a canonical row as it is
            assert fading._positive_means(canon) is canon
        assert ls.canonical_gains[0].tobytes() == ls.canonical_gains[1].tobytes()

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            self.base(d_src_relay=[0.1, -0.12])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            self.base(d_relay_dst=[0.1])
        with pytest.raises(ValueError):
            self.base(d_pu_relay=[[0.4, 0.41]])

    def test_rejects_tied_primary_gains_toward_source(self):
        with pytest.raises(ValueError):
            self.base(d_pu_src=[0.4, 0.4])

    def test_rejects_tied_primary_gains_toward_relay(self):
        # per-receiver family is the column: both transmitters at 0.4 km
        # from relay 0
        with pytest.raises(ValueError):
            self.base(d_pu_relay=[[0.4, 0.41], [0.4, 0.43]])

    def test_allows_tie_across_different_relays(self):
        # one transmitter equidistant from the two relays is fine
        ls = self.base(d_pu_relay=[[0.4, 0.4], [0.42, 0.43]])
        assert ls.n_relays == 2

    def test_allows_tied_secondary_distances(self):
        ls = self.base(d_src_relay=[0.1, 0.1], d_relay_dst=[0.1, 0.1])
        assert ls.n_relays == 2

    def test_alpha_range_warning(self):
        with pytest.warns(UserWarning):
            self.base(alpha=8.0)

    def test_single_primary_single_relay(self):
        ls = LinkSet(d_src_relay=[0.5], d_relay_dst=[0.5], d_pu_src=[1.0],
                     d_pu_relay=[[1.0]], d_pu_dst=[1.0])
        assert ls.n_relays == 1
        assert ls.n_primary == 1


class TestPrimaryModel:
    def test_validation(self):
        PrimaryModel(tx_power=0.1, duty=0.5)
        with pytest.raises(ValueError):
            PrimaryModel(tx_power=-0.1, duty=0.5)
        with pytest.raises(ValueError):
            PrimaryModel(tx_power=0.1, duty=1.5)
