import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relaysense import fading, sensing
from relaysense.fading import LinkSet, PrimaryModel, activity_mixture, max_exp_expectation
from relaysense.mcsim import mc_clipped_gain, mc_detection
from relaysense.sensing import (
    ReportGain,
    SecondaryPolicy,
    avg_clipped_gain,
    build_report_gain,
    detection_probability,
    fixed_gain_report,
    report_e2e_cdf,
    sample_miss_probability,
    solve_saturation_gain,
)
from relaysense.scenario import (apply_overrides, ladder_conf, preset, relay_ladder_conf,
                                 scenario_from_conf)
from relaysense.specfun import exp_scaled_gamma_upper_0

import oracles

N0 = 10 ** (-131.0 / 10.0) * 1e-3


def rel_noise_db(v):
    return 10 ** (v / 10.0) * N0


def fig3_setup(n_primary=3, d_first=0.4, threshold_db=33.0):
    d_pu = [d_first + 0.01 * k for k in range(n_primary)]
    links = LinkSet(d_src_relay=[0.1], d_relay_dst=[0.1], d_pu_src=d_pu,
                    d_pu_relay=[[d] for d in d_pu], d_pu_dst=d_pu)
    primary = PrimaryModel(tx_power=rel_noise_db(10.0), duty=0.5)
    policy = SecondaryPolicy(p_max=rel_noise_db(10.0), interference_cap=rel_noise_db(2.0),
                             noise_power=N0, bandwidth=1e6,
                             threshold=rel_noise_db(threshold_db), eta=0.35,
                             p_circuit_tx=0.01, p_circuit_rx=0.0079)
    return links, primary, policy


def relay_cdf(x, links, primary, policy, i=0):
    """report_e2e_cdf of relay i in the scenario's own reporting chain."""
    return report_e2e_cdf(x, build_report_gain(links, primary, policy), i)


def relay_law(links, primary, policy, i=0):
    """Relay i's interference law, as the scenario's reporting chain holds it."""
    return build_report_gain(links, primary, policy).relays[i]


class TestSecondaryPolicy:
    def test_zero_threshold_allowed(self):
        p = SecondaryPolicy(p_max=1.0, interference_cap=1.0, noise_power=1.0,
                            bandwidth=1.0, threshold=0.0, eta=0.5,
                            p_circuit_tx=1.0, p_circuit_rx=1.0)
        assert p.threshold == 0.0

    def test_rejects_nonpositive_powers(self):
        with pytest.raises(ValueError):
            SecondaryPolicy(p_max=0.0, interference_cap=1.0, noise_power=1.0,
                            bandwidth=1.0, threshold=0.1, eta=0.5,
                            p_circuit_tx=1.0, p_circuit_rx=1.0)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            SecondaryPolicy(p_max=1.0, interference_cap=1.0, noise_power=1.0,
                            bandwidth=1.0, threshold=0.1, eta=0.0,
                            p_circuit_tx=1.0, p_circuit_rx=1.0)


class TestReportPower:
    def unit_setup(self, p_max, cap):
        links = LinkSet(d_src_relay=[1.0], d_relay_dst=[1.0], d_pu_src=[1.0],
                        d_pu_relay=[[1.0]], d_pu_dst=[1.0])
        primary = PrimaryModel(tx_power=1.0, duty=0.5)
        policy = SecondaryPolicy(p_max=p_max, interference_cap=cap, noise_power=1.0,
                                 bandwidth=1.0, threshold=0.1, eta=0.5,
                                 p_circuit_tx=1.0, p_circuit_rx=1.0)
        return links, primary, policy

    def test_equal_caps_unit_gain(self):
        # single transmitter at unit distance: E[peak gain] = 1, so
        # p = 1/(1/1 + 1/1)
        p = build_report_gain(*self.unit_setup(1.0, 1.0)).p_report[0]
        assert p == pytest.approx(0.5, rel=1e-14)

    def test_loose_interference_cap(self):
        p = build_report_gain(*self.unit_setup(2.0, 1e12)).p_report[0]
        assert p == pytest.approx(2.0, rel=1e-9)

    def test_loose_amplifier_cap(self):
        p = build_report_gain(*self.unit_setup(1e12, 3.0)).p_report[0]
        assert p == pytest.approx(3.0, rel=1e-9)

    def test_never_exceeds_either_cap(self):
        links, primary, policy = fig3_setup()
        from relaysense.fading import max_exp_expectation
        eq = max_exp_expectation(links.g_pu_relay[0])
        p = build_report_gain(links, primary, policy).p_report[0]
        assert p <= policy.p_max
        assert p * eq <= policy.interference_cap * (1 + 1e-12)


class TestFixedGainReport:
    # fig6 and fig8 have interference means near 1e16, where E[1/(x+1)] is
    # carried by the decades of x far below the means
    @pytest.mark.parametrize("name", ["fig3", "fig6", "fig8"])
    def test_matches_quadrature(self, name):
        scn = scenario_from_conf(preset(name))
        links, primary, policy, i = scn.links, scn.primary, scn.policy, scn.relay
        u = fixed_gain_report(relay_law(links, primary, policy, i))
        q = oracles.quad_mean_inv_plus1(links.g_pu_relay[i],
                                        primary.tx_power / policy.noise_power, primary.duty)
        assert u == pytest.approx(1.0 / q, rel=1e-6)

    def test_single_always_on_closed_form(self):
        links = LinkSet(d_src_relay=[0.1], d_relay_dst=[0.1], d_pu_src=[0.4],
                        d_pu_relay=[[0.4]], d_pu_dst=[0.4])
        primary = PrimaryModel(tx_power=rel_noise_db(10.0), duty=1.0)
        policy = fig3_setup()[2]
        c = N0 / (primary.tx_power * links.g_pu_relay[0][0])
        want = 1.0 / (c * exp_scaled_gamma_upper_0(c))
        assert fixed_gain_report(relay_law(links, primary, policy)) == pytest.approx(
            want, rel=1e-12)

    def test_gain_exceeds_one(self):
        # E[1/(x+1)] <= 1 with equality only in degenerate cases
        links, primary, policy = fig3_setup()
        assert fixed_gain_report(relay_law(links, primary, policy)) > 1.0

    @pytest.mark.parametrize("duty", [0.0, 5e-324, 1e-300])
    def test_vanishing_duty_is_a_plain_infinity(self, duty):
        # on fig7 the mixture sum E[1/(x+1); x>0] is 0 or subnormal at these
        # duties: nothing is forwarded, and inverting it must not warn
        scn = scenario_from_conf(preset("fig7"))
        primary = PrimaryModel(tx_power=scn.primary.tx_power, duty=duty)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = fixed_gain_report(relay_law(scn.links, primary, scn.policy))
        assert type(u) is float and u == math.inf


class TestReportE2eCdf:
    def test_atom_at_zero(self):
        links, primary, policy = fig3_setup()
        atom = activity_mixture(links.g_pu_relay[0], primary.duty, 1.0).atom
        assert relay_cdf(0.0, links, primary, policy) == atom

    def test_rejects_negative(self):
        links, primary, policy = fig3_setup()
        with pytest.raises(ValueError):
            relay_cdf(-1.0, links, primary, policy)

    def test_upper_limit(self):
        links, primary, policy = fig3_setup()
        assert relay_cdf(1e8, links, primary, policy) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dualhop_quadrature(self):
        links, primary, policy = fig3_setup()
        report = build_report_gain(links, primary, policy)
        u = report.u_report[0]
        b = report.p_report[0] * float(links.g_relay_dst[0]) / N0
        assert report.snr_report[0] == b
        for x in (0.01, 1.0, 30.0, 300.0, 3000.0):
            closed = report_e2e_cdf(x, report, 0)
            quad = oracles.dualhop_report_cdf(x, links.g_pu_relay[0],
                                              primary.tx_power / N0, primary.duty,
                                              u, b)
            assert closed == pytest.approx(quad, abs=1e-8)

    def test_monotone_grid(self):
        links, primary, policy = fig3_setup()
        xs = np.geomspace(1e-3, 1e6, 40)
        vals = relay_cdf(xs, links, primary, policy)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0 + 1e-12))


class TestDetection:
    def test_zero_threshold_consistency(self):
        links, primary, policy = fig3_setup()
        atom_dst = activity_mixture(links.g_pu_dst, primary.duty, 1.0).atom
        atom_rel = activity_mixture(links.g_pu_relay[0], primary.duty, 1.0).atom
        miss0 = sample_miss_probability(0.0, build_report_gain(links, primary, policy))
        assert miss0 == pytest.approx(atom_dst * atom_rel, rel=1e-12)
        pd = detection_probability(0.0, 50, links, primary, policy)
        assert pd == pytest.approx(1.0 - miss0**50, rel=1e-12)

    def test_direct_cdf_at_zero(self):
        links, primary, policy = fig3_setup()
        atom = activity_mixture(links.g_pu_dst, primary.duty, 1.0).atom
        assert build_report_gain(links, primary, policy).direct.cdf(0.0) == atom

    def test_sample_doubling_squares_miss(self):
        links, primary, policy = fig3_setup()
        lam = policy.threshold
        m1 = 1.0 - detection_probability(lam, 100, links, primary, policy)
        m2 = 1.0 - detection_probability(lam, 200, links, primary, policy)
        assert m2 == pytest.approx(m1**2, rel=1e-10)

    @pytest.mark.pin
    def test_anchor_operating_point(self):
        links, primary, policy = fig3_setup()
        pd = detection_probability(policy.threshold, 200, links, primary, policy)
        assert pd == pytest.approx(0.9900944311401283, rel=1e-9)
        assert pd >= 0.90

    def test_monotone_in_threshold(self):
        links, primary, policy = fig3_setup()
        lams = np.geomspace(0.1 * N0, 1e6 * N0, 25)
        pds = [detection_probability(l, 200, links, primary, policy) for l in lams]
        assert all(a >= b - 1e-12 for a, b in zip(pds, pds[1:]))

    def test_monotone_in_samples(self):
        links, primary, policy = fig3_setup()
        pds = [detection_probability(policy.threshold, n, links, primary, policy)
               for n in (1, 10, 100, 1000)]
        assert all(b >= a for a, b in zip(pds, pds[1:]))

    def test_idle_primary_is_never_detected(self):
        # duty 0 leaves no continuous part: p_detect is exactly 0, not NaN
        links, _, policy = fig3_setup()
        idle = PrimaryModel(tx_power=rel_noise_db(10.0), duty=0.0)
        assert fixed_gain_report(relay_law(links, idle, policy)) == math.inf
        assert detection_probability(policy.threshold, 200, links, idle, policy) == 0.0

    def test_rejects_zero_samples(self):
        links, primary, policy = fig3_setup()
        with pytest.raises(ValueError):
            detection_probability(policy.threshold, 0, links, primary, policy)

    def test_fractional_samples_interpolate(self):
        links, primary, policy = fig3_setup()
        lo = detection_probability(policy.threshold, 100, links, primary, policy)
        mid = detection_probability(policy.threshold, 100.5, links, primary, policy)
        hi = detection_probability(policy.threshold, 101, links, primary, policy)
        assert lo < mid < hi

    def test_against_simulation(self):
        links, primary, policy = fig3_setup()
        for k, frac in enumerate((0.5, 1.0, 2.0)):
            lam = frac * policy.threshold
            want = detection_probability(lam, 200, links, primary, policy)
            got = mc_detection(links, primary, policy, lam, 200,
                               trials=200_000, seed=910 + k)
            assert abs(got.mean - want) < 3.0 * max(got.stderr, 1e-12), \
                f"lam fraction {frac}: z = {(got.mean - want) / got.stderr}"


class TestClippedGain:
    def test_matches_fixed_gain_at_zero_threshold(self):
        law = relay_law(*fig3_setup())
        u = fixed_gain_report(law)
        # at t = 0 the clipped branch holds only the atom (weight atom/u)
        # and the 1/(x+1) branch contributes the full fixed-gain average 1/u
        got = avg_clipped_gain(0.0, law, u)
        atom = law.atom
        assert got == pytest.approx((atom + 1.0) / u, rel=1e-10)

    def test_shape_and_limits(self):
        law = relay_law(*fig3_setup())
        u = fixed_gain_report(law)
        atom = law.atom
        ts = np.geomspace(1e-3, 1e6, 30)
        vals = np.array([avg_clipped_gain(t, law, u) for t in ts])
        assert np.all(vals > 0.0)
        # t = 0 is the global maximum; unbounded t disables clipping entirely
        assert np.all(vals <= (atom + 1.0) / u + 1e-15)
        assert vals[-1] == pytest.approx(1.0 / u, rel=1e-9)
        # the residual against 1/u crosses zero exactly once from above
        signs = np.sign(vals - 1.0 / u)
        flips = np.nonzero(np.diff(signs) < 0)[0]
        assert flips.size == 1

    def test_solver_residual(self):
        law = relay_law(*fig3_setup())
        u = fixed_gain_report(law)
        t = solve_saturation_gain(law, u)
        assert t >= 0.0
        resid = avg_clipped_gain(t, law, u) - 1.0 / u
        assert abs(resid) <= 1e-9 / u

    def test_always_on_plateau_edge(self):
        links = LinkSet(d_src_relay=[0.1], d_relay_dst=[0.1], d_pu_src=[0.4],
                        d_pu_relay=[[0.4]], d_pu_dst=[0.4])
        primary = PrimaryModel(tx_power=rel_noise_db(10.0), duty=1.0)
        policy = fig3_setup()[2]
        law = relay_law(links, primary, policy)
        assert solve_saturation_gain(law, fixed_gain_report(law)) == 0.0

    def test_rejects_negative_threshold(self):
        law = relay_law(*fig3_setup())
        with pytest.raises(ValueError, match="non-negative"):
            avg_clipped_gain(-1e-3, law, fixed_gain_report(law))

    def test_no_root_raises(self):
        law = relay_law(*fig3_setup())
        with pytest.raises(ValueError, match="sign change"):
            solve_saturation_gain(law, 1e-6)
        # duty 0 forwards nothing (u = inf): the residual is identically zero
        with pytest.raises(ValueError, match="sign change"):
            solve_saturation_gain(law, math.inf)

    @pytest.mark.parametrize("name", ["fig6", "fig8"])
    def test_stock_root_inside_bracket(self, name):
        # u is about 1e15 on these geometries, far outside a fixed K bracket
        scn = scenario_from_conf(preset(name))
        law = relay_law(scn.links, scn.primary, scn.policy, scn.relay)
        u = fixed_gain_report(law)
        t = solve_saturation_gain(law, u)
        assert 0.0 < t < u - 1.0
        assert abs(u * avg_clipped_gain(t, law, u) - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", ["default", "fig3", "fig6", "fig8", "table1"])
    def test_at_most_80_residual_evaluations(self, name, monkeypatch):
        scn = scenario_from_conf(preset(name))
        law = relay_law(scn.links, scn.primary, scn.policy, scn.relay)
        u = fixed_gain_report(law)
        calls = []
        real = sensing.avg_clipped_gain

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(sensing, "avg_clipped_gain", counted)
        solve_saturation_gain(law, u)
        assert 1 <= len(calls) <= 80

    def test_against_simulation(self):
        links, primary, policy = fig3_setup()
        law = relay_law(links, primary, policy)
        u = fixed_gain_report(law)
        t = solve_saturation_gain(law, u)
        got = mc_clipped_gain(links, primary, policy, 0, t, u,
                              trials=400_000, seed=77)
        assert abs(got.mean - 1.0 / u) < 3.0 * got.stderr


class TestBuildReportGain:
    def test_without_clipping(self):
        links, primary, policy = fig3_setup()
        rg = build_report_gain(links, primary, policy)
        assert len(rg.u_report) == 1

    def test_gain_validation(self):
        law = relay_law(*fig3_setup())
        with pytest.raises(ValueError):
            ReportGain(direct=law, relays=(law,), u_report=(0.0,), p_report=(1.0,),
                       snr_report=(1.0,))


def ladder_scenario(n_pu):
    """The 2-relay geometry whose primary ladder the benchmark grows to L = 12."""
    return scenario_from_conf(relay_ladder_conf(
        ladder_conf(preset("fig3"), 0.48, n_pu), 0.1, 0.1, 2))


def hexes(v):
    return [float(x).hex() for x in np.atleast_1d(v)]


class TestSubsetOracle:
    """The mixture consumers add one term per active subset, in
    itertools.combinations order, exactly as a literal loop over the subsets
    does; their outputs keep every bit."""

    @pytest.mark.parametrize("n_pu", range(1, 13))
    def test_bit_identical_to_subset_loop(self, n_pu):
        scn = ladder_scenario(n_pu)
        links, primary, policy = scn.links, scn.primary, scn.policy
        scale = primary.tx_power / policy.noise_power
        lam = policy.threshold / policy.noise_power
        xs = np.array([0.0, 0.25 * lam, lam, 4.0 * lam])
        report = build_report_gain(links, primary, policy)
        assert hexes(report.direct.cdf(xs)) \
            == hexes(oracles.subset_hypoexp_cdf(xs, links.g_pu_dst, scale, primary.duty))
        for i in range(links.n_relays):
            u, p_rep, law = report.u_report[i], report.p_report[i], report.relays[i]
            assert hexes(u) == hexes(oracles.subset_fixed_gain_report(links, primary, policy, i))
            assert hexes(report_e2e_cdf(xs, report, i)) \
                == hexes(oracles.subset_report_e2e_cdf(xs, links, primary, policy, i, u, p_rep))
            for t in (0.0, lam, 10.0 * lam):
                assert hexes(avg_clipped_gain(t, law, u)) \
                    == hexes(oracles.subset_avg_clipped_gain(t, links, primary, policy, i, u))
            assert hexes(max_exp_expectation(links.g_pu_relay[i])) \
                == hexes(oracles.subset_max_exp_expectation(links.g_pu_relay[i]))


# the geometries of the sharing contract: every stock preset and the L = 12
# ladder, whose receivers sit on one or two primary families, and fig4 with
# relays on families of their own (relay 0's row is still the source's)
FAMILY_CASES = {name: (lambda name=name: scenario_from_conf(preset(name)))
                for name in ("default", "fig3", "fig4", "fig6", "fig8", "table1")}
FAMILY_CASES["ladder12"] = lambda: ladder_scenario(12)
FAMILY_CASES["fig4-distinct"] = lambda: scenario_from_conf(apply_overrides(
    preset("fig4"), ["links.d_pu_relay=0.3, 0.32; 0.31, 0.33"]))
# (peaks, laws, fixed gains) each geometry expands: one per distinct family
FAMILY_COUNTS = {"default": (1, 2, 1), "fig3": (1, 1, 1), "fig4": (1, 2, 1),
                 "fig6": (1, 1, 1), "fig8": (1, 1, 1), "table1": (1, 1, 1),
                 "ladder12": (1, 1, 1), "fig4-distinct": (2, 3, 2)}


class TestOneExpansionPerFamily:
    """Each distinct primary family's interference law, fixed gain and peak
    gain are expanded once per `LinkSet` and per reporting chain, keyed on
    the exact bytes of the family's gain row; every closed form then reads
    the built law, and every output keeps the bits of a per-receiver
    expansion."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        calls = []
        for mod, name in ((fading, "activity_mixture"), (sensing, "activity_mixture"),
                          (sensing, "fixed_gain_report")):
            real = getattr(sensing, name)

            # an expansion is logged with its primary count, a fixed gain
            # (whose one argument is a law) with None
            def counted(arg, *args, real=real, name=name):
                calls.append((name, len(arg) if args else None))
                return real(arg, *args)

            monkeypatch.setattr(mod, name, counted)
        return calls

    def test_detection_point(self, expansions):
        # the destination and the two relays of the L = 12 ladder point
        # share the d_pu ladder's one family
        scn = ladder_scenario(12)
        detection_probability(scn.policy.threshold, scn.n_samples, scn.links, scn.primary,
                              scn.policy)
        assert expansions == [("activity_mixture", 12), ("fixed_gain_report", None)]

    def test_simulated_detection_point(self, expansions):
        # the simulation builds the whole chain, and the destination shares
        # the ladder's one family with the relays
        scn = ladder_scenario(12)
        mc_detection(scn.links, scn.primary, scn.policy, scn.policy.threshold,
                     scn.n_samples, 4096, scn.seed)
        assert expansions == [("activity_mixture", 12), ("fixed_gain_report", None)]

    def test_simulated_detection_on_distinct_families(self, expansions):
        # each relay's family, then the destination's third one; a fixed
        # gain per relay family
        scn = FAMILY_CASES["fig4-distinct"]()
        mc_detection(scn.links, scn.primary, scn.policy, scn.policy.threshold,
                     scn.n_samples, 4096, scn.seed)
        assert expansions == [("activity_mixture", 2)] * 3 + [("fixed_gain_report", None)] * 2

    def test_energy_model_and_clipping_solver(self, expansions):
        # fig6: the destination and four relays on one family, then none
        # for the solver
        scn = scenario_from_conf(preset("fig6"))
        model = scn.energy_model()
        assert expansions == [("activity_mixture", 3), ("fixed_gain_report", None)]
        expansions.clear()
        solve_saturation_gain(model.report.relays[scn.relay], model.report.u_report[scn.relay])
        assert expansions == []

    @pytest.mark.parametrize("case", sorted(FAMILY_CASES))
    def test_one_call_per_distinct_family(self, case, monkeypatch):
        scn = FAMILY_CASES[case]()
        links, primary, policy = scn.links, scn.primary, scn.policy
        fields = (links.d_src_relay, links.d_relay_dst, links.d_pu_src, links.d_pu_relay,
                  links.d_pu_dst, links.alpha)
        calls = {}
        for mod, name in ((fading, "max_exp_expectation"), (sensing, "activity_mixture"),
                          (sensing, "fixed_gain_report")):
            real = getattr(mod, name)

            def counted(*args, real=real, name=name):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)

            monkeypatch.setattr(mod, name, counted)
        built = LinkSet(*fields)
        report = build_report_gain(built, primary, policy)
        def distinct(*rows):
            return len({g.tobytes() for g in rows})

        want = (distinct(links.g_pu_src, *links.g_pu_relay),
                distinct(links.g_pu_dst, *links.g_pu_relay), distinct(*links.g_pu_relay))
        assert want == FAMILY_COUNTS[case]
        assert (calls["max_exp_expectation"], calls["activity_mixture"],
                calls["fixed_gain_report"]) == want
        monkeypatch.undo()
        self.assert_bits_of_per_receiver_expansion(built, primary, policy, report)

    @staticmethod
    def assert_bits_of_per_receiver_expansion(links, primary, policy, report):
        scale = primary.tx_power / policy.noise_power
        lam = policy.threshold / policy.noise_power
        xs = np.array([0.0, 0.25 * lam, lam, 4.0 * lam, 16.0 * lam])
        laws = [activity_mixture(g, primary.duty, scale) for g in links.g_pu_relay]
        peaks = [max_exp_expectation(g) for g in links.g_pu_relay]
        p_report = [1.0 / (1.0 / policy.p_max + peak / policy.interference_cap)
                    for peak in peaks]
        ref = ReportGain(
            direct=activity_mixture(links.g_pu_dst, primary.duty, scale),
            relays=tuple(laws), u_report=tuple(fixed_gain_report(law) for law in laws),
            p_report=tuple(p_report),
            snr_report=tuple(p * g / policy.noise_power
                             for p, g in zip(p_report, links.g_relay_dst.tolist())))
        assert hexes(links.peak_pu_src) == hexes(max_exp_expectation(links.g_pu_src))
        assert hexes(links.peak_pu_relay) == hexes(peaks)
        for name in ("u_report", "p_report", "snr_report"):
            assert hexes(getattr(report, name)) == hexes(getattr(ref, name)), name
        assert hexes(report.direct.cdf(xs)) == hexes(ref.direct.cdf(xs))
        want = ref.direct.cdf(lam)
        for i in range(links.n_relays):
            assert hexes(report.relays[i].cdf(xs)) == hexes(ref.relays[i].cdf(xs))
            assert hexes(report_e2e_cdf(xs, report, i)) == hexes(report_e2e_cdf(xs, ref, i))
            want *= report_e2e_cdf(lam, ref, i)
        assert hexes(sample_miss_probability(lam, report)) == hexes(want)


class TestKernelCalls:
    """The mixture is evaluated one array operation per active count, so a
    report quantity calls its special-function kernel at most L times, not
    once per active subset (2^L - 1)."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        for name in ("exp_scaled_gamma_upper_0", "bessel_k1_scaled"):
            real = getattr(sensing, name)

            def counted(x, real=real, name=name):
                calls.append(name)
                return real(x)

            monkeypatch.setattr(sensing, name, counted)
        return calls

    @pytest.mark.parametrize("n_pu", [1, 4, 12])
    def test_at_most_one_call_per_active_count(self, kernel_calls, n_pu):
        scn = ladder_scenario(n_pu)
        report = build_report_gain(scn.links, scn.primary, scn.policy)
        kernel_calls.clear()
        fixed_gain_report(report.relays[0])
        assert 1 <= len(kernel_calls) <= n_pu
        kernel_calls.clear()
        report_e2e_cdf(np.array([1.0, 10.0]), report, 0)
        assert 1 <= len(kernel_calls) <= n_pu


well_separated_means = st.lists(
    st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=6,
).filter(lambda m: all(max(a, b) >= 1.2 * min(a, b) for a, b in itertools.combinations(m, 2)))

well_separated_distances = st.lists(
    st.floats(min_value=0.2, max_value=1.5), min_size=1, max_size=6,
).filter(lambda d: all(max(a, b) >= 1.05 * min(a, b) for a, b in itertools.combinations(d, 2)))

any_duty = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


# The partial-fraction weights alternate in sign, and their sum cancels to a
# probability, leaving absolute rounding noise that grows with the weights:
# about 2e-13 for six means spaced by the 1.2 ratio these strategies allow.
# The CDF checks allow that noise, and test_cancellation_noise_is_visible
# pins it so that a numerically stable mixture shows up as an XPASS.
CANCELLATION_TOL = 1e-12


def assert_cdf(vals, tol=CANCELLATION_TOL):
    assert np.all(np.isfinite(vals))
    assert np.all((vals >= -tol) & (vals <= 1.0 + tol))
    assert np.all(np.diff(vals) >= -tol)


class TestMixtureProperties:
    @pytest.mark.xfail(strict=True, reason="the partial-fraction sum cancels; the "
                       "CDF dips below 0 and decreases by about 2e-13")
    def test_cancellation_noise_is_visible(self):
        means = 1.2 ** np.arange(6)
        xs = np.concatenate([[0.0], np.geomspace(1e-3, 50.0 * means.sum(), 2000)])
        assert_cdf(activity_mixture(means, 1.0, 1.0).cdf(xs), tol=0.0)

    @given(well_separated_means, any_duty)
    @settings(max_examples=80, deadline=None)
    def test_hypoexp_cdf_is_a_cdf(self, means, duty):
        xs = np.concatenate([[0.0], np.geomspace(1e-3 * min(means), 50.0 * sum(means), 60)])
        assert_cdf(activity_mixture(means, duty, 1.0).cdf(xs))

    @given(well_separated_distances, any_duty)
    # a finite fixed gain near the float limit: the report kernel's argument
    # overflows and is clipped, without a warning
    @example(d_pu=[1.5], duty=2.2250738585072014e-308)
    @settings(max_examples=60, deadline=None)
    def test_report_quantities(self, d_pu, duty):
        _, fig3_primary, policy = fig3_setup()
        links = LinkSet(d_src_relay=[0.1], d_relay_dst=[0.1], d_pu_src=d_pu,
                        d_pu_relay=[[d] for d in d_pu], d_pu_dst=d_pu)
        primary = PrimaryModel(tx_power=fig3_primary.tx_power, duty=duty)
        report = build_report_gain(links, primary, policy)
        u = report.u_report[0]
        assert u > 0.0
        if duty == 0.0:
            assert u == math.inf
        xs = np.concatenate([[0.0], np.geomspace(1e-3, 1e7, 60)])
        assert_cdf(report_e2e_cdf(xs, report, 0))
