import math

import numpy as np
import pytest

from relaysense import specfun, transmission
from relaysense.fading import LinkSet, PrimaryModel
from relaysense.mcsim import mc_outage
from relaysense.scenario import apply_overrides, preset, scenario_from_conf
from relaysense.sensing import SecondaryPolicy, build_report_gain
from relaysense.transmission import (
    _subset_terms,
    build_trans_coeffs,
    outage_probability,
    relay_selection_prob,
    rho_from_doppler,
)

import oracles
from test_sensing import N0, rel_noise_db

J0_FIRST_ZERO = 2.404825557695773


def fig4_setup(n_relays=2):
    d = [0.1] * n_relays
    links = LinkSet(d_src_relay=d, d_relay_dst=d, d_pu_src=[0.3, 0.31],
                    d_pu_relay=[[0.3] * n_relays, [0.31] * n_relays],
                    d_pu_dst=[0.4, 0.41])
    primary = PrimaryModel(tx_power=rel_noise_db(30.0), duty=0.5)
    policy = SecondaryPolicy(p_max=rel_noise_db(10.0), interference_cap=rel_noise_db(6.0),
                             noise_power=N0, bandwidth=1e6, threshold=rel_noise_db(3.0),
                             eta=0.35, p_circuit_tx=0.01, p_circuit_rx=0.0079)
    return links, primary, policy


class TestCsi:
    def test_zero_lag_full_correlation(self):
        assert rho_from_doppler(100.0, 0.0) == 1.0

    def test_bessel_null(self):
        f = J0_FIRST_ZERO / (2.0 * math.pi)
        assert rho_from_doppler(f, 1.0) < 1e-9

    def test_clamped_to_unit_interval(self):
        for f_tau in np.linspace(0.0, 3.0, 50):
            r = rho_from_doppler(f_tau, 1.0)
            assert 0.0 <= r <= 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rho_from_doppler(-1.0, 1.0)

    def test_doppler_fallback(self):
        conf = apply_overrides(preset("fig6"), ["csi.doppler_hz=10 Hz", "csi.t_diff=1 ms"])
        assert scenario_from_conf(conf).rho == pytest.approx(
            rho_from_doppler(10.0, 0.001), rel=1e-14)


class TestTransPowers:
    """The transmit powers, read from the fields of build_trans_coeffs."""

    def test_full_detection_hits_amplifier_cap(self):
        links, primary, policy = fig4_setup()
        co = build_trans_coeffs(links, primary, policy, p_detect=1.0)
        p_src, p_rel = co.p_src, co.p_relay
        assert p_src == policy.p_max
        assert all(p == policy.p_max for p in p_rel)

    def test_zero_detection_matches_reporting_power(self):
        # with the band always misread (miss exactly 1) the relay
        # interference weighting is the reporting phase's: the powers and
        # report SNRs are equal down to the last bit, here and on every
        # stock preset
        stock = [scenario_from_conf(preset(name)) for name in
                 ("fig3", "fig4", "fig6", "fig7", "fig8", "table1", "default")]
        for links, primary, policy in [fig4_setup()] + [(s.links, s.primary, s.policy)
                                                         for s in stock]:
            co = build_trans_coeffs(links, primary, policy, p_detect=0.0)
            report = build_report_gain(links, primary, policy)
            assert [p.hex() for p in report.p_report] == [p.hex() for p in co.p_relay]
            assert [b.hex() for b in report.snr_report] == [b.hex() for b in co.snr_means]

    def test_monotone_in_detection(self):
        links, primary, policy = fig4_setup()
        ps = [build_trans_coeffs(links, primary, policy, p).p_src
              for p in (0.0, 0.5, 0.9, 1.0)]
        assert all(b > a for a, b in zip(ps, ps[1:]))

    def test_rejects_bad_probability(self):
        links, primary, policy = fig4_setup()
        with pytest.raises(ValueError):
            build_trans_coeffs(links, primary, policy, p_detect=-0.1)


class TestTransCoeffs:
    @pytest.mark.parametrize("n_relays", (1, 2, 4))
    def test_snr_first_is_the_first_hop_mean(self, n_relays):
        rng = np.random.default_rng(n_relays)
        for _ in range(20):
            d = rng.uniform(0.05, 0.5, n_relays)
            links = LinkSet(d_src_relay=d, d_relay_dst=d[::-1], d_pu_src=[0.3, 0.31],
                            d_pu_relay=[[0.3] * n_relays, [0.31] * n_relays],
                            d_pu_dst=[0.4, 0.41])
            primary, policy = fig4_setup()[1:]
            co = build_trans_coeffs(links, primary, policy, float(rng.uniform()))
            assert co.snr_first == tuple(co.p_src * float(links.g_src_relay[i]) / N0
                                         for i in range(n_relays))

    @pytest.mark.parametrize("name", ["default", "fig4", "fig7", "table1"])
    def test_fields_equal_the_accessor_expressions(self, name):
        # the builder reads the stored gains as lists; each entry is the
        # accessor's float, so every field keeps its bits
        scn = scenario_from_conf(preset(name))
        links, policy = scn.links, scn.policy
        n0 = policy.noise_power
        for p_detect in (0.0, 0.3, 0.95, 1.0):
            co = build_trans_coeffs(links, scn.primary, policy, p_detect)
            n = links.n_relays
            assert co.snr_means == tuple(co.p_relay[i] * float(links.g_relay_dst[i]) / n0
                                         for i in range(n))
            assert co.inv_first == tuple(n0 / (co.p_src * float(links.g_src_relay[i]))
                                         for i in range(n))
            assert co.u_trans == tuple(1.0 / float(c * specfun.exp_scaled_gamma_upper_0(c))
                                       for c in co.inv_first)

    def test_gain_normaliser_is_derived_on_first_read(self, monkeypatch):
        scn = scenario_from_conf(preset("fig7"))
        calls = []
        real = transmission.exp_scaled_gamma_upper_0
        monkeypatch.setattr(transmission, "exp_scaled_gamma_upper_0",
                            lambda c: calls.append(c) or real(c))
        co = build_trans_coeffs(scn.links, scn.primary, scn.policy, 0.9)
        assert calls == []
        u = co.u_trans
        assert calls == list(co.inv_first) and len(u) == scn.links.n_relays == 4
        assert co.u_trans is u and len(calls) == 4


class TestRelaySelection:
    def test_single_relay_certain(self):
        assert relay_selection_prob((3.0,), 0) == pytest.approx(1.0, rel=1e-14)

    def test_iid_uniform(self):
        for m in (2, 3, 4):
            probs = [relay_selection_prob((5.0,) * m, i) for i in range(m)]
            for p in probs:
                assert p == pytest.approx(1.0 / m, rel=1e-12)

    def test_inid_sums_to_one(self):
        means = (1.0, 2.5, 7.0)
        total = sum(relay_selection_prob(means, i) for i in range(3))
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_better_link_selected_more(self):
        means = (1.0, 2.5, 7.0)
        probs = [relay_selection_prob(means, i) for i in range(3)]
        assert probs[0] < probs[1] < probs[2]

    def test_matches_empirical_frequencies(self):
        means = np.array([1.0, 2.5, 7.0])
        n = 10**6
        rng = np.random.default_rng(5150)
        draws = rng.exponential(1.0, (n, 3)) * means
        picks = np.argmax(draws, axis=1)
        for i in range(3):
            want = relay_selection_prob(tuple(means), i)
            emp = float(np.mean(picks == i))
            se = math.sqrt(want * (1 - want) / n)
            assert abs(emp - want) < 3.5 * se


class TestSelectionTermBits:
    """The selection terms run on Python floats; the numpy-scalar oracle
    evaluates the same expressions in the same order, so every term and
    every selection probability must be equal, not merely close."""

    @staticmethod
    def mean_sets(rng):
        for m in range(1, 7):
            for _ in range(25):
                yield tuple(10.0 ** rng.uniform(-6.0, 6.0, m))
            # ties: identically placed relays are a valid deployment
            yield (float(10.0 ** rng.uniform(-3.0, 3.0)),) * m
            if m > 2:
                means = 10.0 ** rng.uniform(-3.0, 3.0, m)
                means[1::2] = means[0]
                yield tuple(means)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 1.0])
    def test_terms_equal_the_numpy_oracle(self, rho):
        rng = np.random.default_rng(1717)
        for means in self.mean_sets(rng):
            for i in range(len(means)):
                assert _subset_terms(means, i, rho) \
                    == oracles.numpy_subset_terms(means, i, rho), (means, i)

    def test_selection_probs_equal_the_numpy_oracle(self):
        rng = np.random.default_rng(1718)
        for means in self.mean_sets(rng):
            for i in range(len(means)):
                assert relay_selection_prob(means, i) \
                    == oracles.numpy_selection_prob(means, i), (means, i)

    @pytest.mark.parametrize("means", [(1.0, 0.0), (1.0, -2.0)])
    def test_rejects_non_positive_means(self, means):
        with pytest.raises(ValueError, match="must be positive"):
            relay_selection_prob(means, 0)


class TestTransE2eCdf:
    """The end-to-end data CDF of the selected relay, read through
    outage_probability: with one relay, or with identical relays, the
    selection-weighted sum it returns is that CDF."""

    def test_single_relay_matches_quadrature(self):
        primary = fig4_setup()[1]
        for d, p_max_db, p_detect in ((0.1, 10.0, 0.95), (0.2, 4.0, 0.5), (0.15, 20.0, 0.0)):
            links = LinkSet(d_src_relay=[d], d_relay_dst=[d], d_pu_src=[0.3, 0.31],
                            d_pu_relay=[[0.3], [0.31]], d_pu_dst=[0.4, 0.41])
            policy = SecondaryPolicy(p_max=rel_noise_db(p_max_db),
                                     interference_cap=rel_noise_db(6.0), noise_power=N0,
                                     bandwidth=1e6, threshold=rel_noise_db(3.0), eta=0.35,
                                     p_circuit_tx=0.01, p_circuit_rx=0.0079)
            co = build_trans_coeffs(links, primary, policy, p_detect)
            a = co.snr_first[0]
            for x in (0.5, 2.0, 10.0):
                closed = outage_probability(x * N0, links, primary, policy, p_detect, 0.7)
                quad = oracles.dualhop_exp_cdf(x, a, co.u_trans[0], co.snr_means[0])
                assert closed == pytest.approx(quad, abs=1e-8)

    def test_single_relay_rho_invariant(self):
        links = LinkSet(d_src_relay=[0.1], d_relay_dst=[0.1], d_pu_src=[0.3, 0.31],
                        d_pu_relay=[[0.3], [0.31]], d_pu_dst=[0.4, 0.41])
        primary, policy = fig4_setup()[1:]
        for x in (0.5, 2.0, 50.0):
            lo = outage_probability(x * N0, links, primary, policy, 0.95, 0.0)
            hi = outage_probability(x * N0, links, primary, policy, 0.95, 1.0)
            assert abs(lo - hi) <= 1e-12

    def test_uncorrelated_selection_is_unconditional(self):
        # rho = 0: the pick carries no information about the true channel,
        # so the conditional law equals the plain dual-hop law
        links, primary, policy = fig4_setup()
        co = build_trans_coeffs(links, primary, policy, 0.95)
        a = co.snr_first[0]
        for x in (0.5, 2.0, 10.0):
            cond = outage_probability(x * N0, links, primary, policy, 0.95, 0.0)
            quad = oracles.dualhop_exp_cdf(x, a, co.u_trans[0], co.snr_means[0])
            assert cond == pytest.approx(quad, abs=1e-8)

    def test_full_correlation_continuity(self):
        links, primary, policy = fig4_setup()
        xs = np.geomspace(0.01, 100.0, 30) * N0
        at_one = np.array([outage_probability(x, links, primary, policy, 0.95, 1.0)
                           for x in xs])
        near_one = np.array([outage_probability(x, links, primary, policy, 0.95, 1.0 - 1e-6)
                             for x in xs])
        assert float(np.max(np.abs(at_one - near_one))) < 1e-4

    def test_monotone_grid(self):
        links, primary, policy = fig4_setup()
        xs = np.geomspace(1e-3, 1e5, 50) * N0
        vals = np.array([outage_probability(x, links, primary, policy, 0.95, 0.9) for x in xs])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= -1e-15) & (vals <= 1.0 + 1e-12))


class TestOutage:
    def test_zero_threshold(self):
        links, primary, policy = fig4_setup()
        assert outage_probability(0.0, links, primary, policy, 0.95, 0.9) == 0.0

    def test_certain_outage_limit(self):
        links, primary, policy = fig4_setup()
        assert outage_probability(1e9 * N0, links, primary, policy, 0.95, 0.9) \
            == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.pin
    def test_frozen_operating_point(self):
        links, primary, policy = fig4_setup()
        got = outage_probability(rel_noise_db(3.0), links, primary, policy, 0.95, 0.9)
        assert got == pytest.approx(0.0006858153435342906, rel=1e-9)

    def test_fresher_estimates_help(self):
        links, primary, policy = fig4_setup()
        vals = [outage_probability(rel_noise_db(3.0), links, primary, policy, 0.95, r)
                for r in (0.5, 0.9, 1.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_monotone_in_amplifier_cap(self):
        links, primary, policy = fig4_setup()
        prev = None
        for p_max_db in range(0, 31, 6):
            pol = SecondaryPolicy(p_max=rel_noise_db(p_max_db),
                                  interference_cap=policy.interference_cap,
                                  noise_power=N0, bandwidth=1e6,
                                  threshold=policy.threshold, eta=0.35,
                                  p_circuit_tx=0.01, p_circuit_rx=0.0079)
            po = outage_probability(rel_noise_db(3.0), links, primary, pol, 0.95, 0.9)
            if prev is not None:
                assert po <= prev + 1e-15
            prev = po

    def test_more_relays_help(self):
        for rho in (0.5, 0.9):
            po1 = outage_probability(rel_noise_db(3.0), *fig4_setup(1), 0.95, rho)
            po4 = outage_probability(rel_noise_db(3.0), *fig4_setup(4), 0.95, rho)
            assert po4 < po1

    def test_against_simulation(self):
        links, primary, policy = fig4_setup()
        for k, (rho, p_detect) in enumerate(((0.5, 0.95), (0.9, 0.95), (1.0, 0.3))):
            want = outage_probability(rel_noise_db(3.0), links, primary, policy,
                                      p_detect, rho)
            got = mc_outage(links, primary, policy, rel_noise_db(3.0), p_detect,
                            rho, trials=2_000_000, seed=4200 + k)
            assert abs(got.mean - want) < 3.5 * got.stderr, \
                f"rho={rho}: z = {(got.mean - want) / got.stderr}"
