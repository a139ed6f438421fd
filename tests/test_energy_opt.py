import configparser
import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaysense import (cli, energy_opt, fading, harvest, mcsim, sensing, specfun,
                        transmission)
from relaysense.energy_opt import (
    TIME_TOL,
    EnergyModel,
    InfeasibleDataError,
    ecg,
    optimize_sensing_time,
    total_energy,
    total_energy_nonharvesting,
)
from relaysense.scenario import (apply_overrides, ladder_conf, preset,
                                 relay_ladder_conf, scenario_from_conf)


def model_for(name, overrides=()):
    conf = apply_overrides(preset(name), overrides)
    return scenario_from_conf(conf).energy_model()


@pytest.fixture(scope="module")
def table1_model():
    return model_for("table1")


@pytest.fixture(scope="module")
def fig7_model():
    return model_for("fig7")


@pytest.fixture(scope="module")
def split_model():
    # table1 links in a 0.1 s frame with a 1 ms report slot
    scn = scenario_from_conf(preset("table1"))
    return EnergyModel(scn.links, scn.primary, scn.policy, 0.1, 0.001, 1e5)


class TestFrameTiming:
    def test_slots(self, split_model):
        m = split_model
        f = m.frame(0.02)
        assert m.t_listen == pytest.approx(0.099)
        assert f.t_data == pytest.approx(0.079)
        assert f.miss == m.miss(0.02)
        assert f.p_detect == 1.0 - m.miss(0.02)

    def test_rejects_bad_split(self, split_model):
        m = split_model
        with pytest.raises(ValueError):
            m.frame(0.2)
        with pytest.raises(ValueError):
            EnergyModel(m.links, m.primary, m.policy, 0.1, 0.0, 1e5)
        with pytest.raises(ValueError):
            m.frame(0.0)


class TestEnergyModel:
    def test_validation(self):
        scn = scenario_from_conf(preset("table1"))
        with pytest.raises(ValueError):
            EnergyModel(scn.links, scn.primary, scn.policy, 0.1, 0.2, 1e5)
        with pytest.raises(ValueError):
            EnergyModel(scn.links, scn.primary, scn.policy, 0.1, 0.001, 0.0)

    # an infinite t_report is rejected earlier, as not below t_total
    @pytest.mark.parametrize("key, value", [
        (key, value) for key in (
            "policy.p_max", "policy.interference_cap", "policy.noise_power",
            "policy.bandwidth", "policy.threshold", "policy.p_circuit_tx",
            "policy.p_circuit_rx", "primary.tx_power", "frame.t_total", "frame.t_report",
            "traffic.rate")
        for value in (math.nan, math.inf) if (key, value) != ("frame.t_report", math.inf)])
    def test_rejects_non_finite_inputs(self, key, value):
        # a nan passes every `<=` check, and would reach the closed forms
        scn = scenario_from_conf(preset("table1"))
        args = {"primary": scn.primary, "policy": scn.policy,
                "frame.t_total": 0.1, "frame.t_report": 0.001, "traffic.rate": 1e5}
        section, name = key.split(".")
        with pytest.raises(ValueError, match=r"^%s must be finite, got %s$" % (key, value)):
            if section in args:
                args[section] = dataclasses.replace(args[section], **{name: value})
            else:
                args[key] = value
            EnergyModel(scn.links, *args.values())

    def test_per_sample_miss_in_unit_interval(self, table1_model):
        assert 0.0 < table1_model.delta < 1.0

    def test_miss_detect_complement(self, table1_model):
        for t in (1e-6, 1e-5, 1e-3):
            assert table1_model.miss(t) + table1_model.frame(t).p_detect == pytest.approx(1.0)

    def test_miss_decreases_with_sensing(self, table1_model):
        # strictly falling until it underflows to an exact zero
        ms = [table1_model.miss(t) for t in np.geomspace(1e-6, 1e-2, 10)]
        assert all(b < a or (a == 0.0 and b == 0.0) for a, b in zip(ms, ms[1:]))
        assert ms[0] > 0.0
        assert ms[-1] == 0.0

    def test_one_coefficient_set_serves_every_relay(self, fig7_model):
        f = fig7_model.frame(0.02)
        assert len(f.e_transmit) == fig7_model.n_relays
        assert sum(f.prr(i) for i in range(fig7_model.n_relays)) == pytest.approx(1.0, rel=1e-12)
        p_tx = fig7_model.policy.p_circuit_tx
        assert f.e_transmit == tuple(p + p_tx for p in f.coeffs.p_relay)

    def test_rejects_out_of_window_time(self, table1_model):
        with pytest.raises(ValueError):
            total_energy(table1_model, 0, 0.0)
        with pytest.raises(ValueError):
            total_energy(table1_model, 0, table1_model.t_listen)


class TestTotalEnergy:
    def test_harvest_credit_identity(self, fig7_model):
        # harvesting enters as an exact credit against the non-harvesting
        # account, by construction
        m = fig7_model
        for t in (1e-5, 1e-3, 0.02, 0.09):
            t_data = m.t_listen - t
            credit = m.frame(t).p_detect * m.harvest_mean[0] * t_data
            assert total_energy(m, 0, t) == total_energy_nonharvesting(m, 0, t) - credit

    def test_component_formula(self, table1_model):
        m = table1_model
        t = 1e-5
        w = m.policy.bandwidth
        f = m.frame(t)
        want = (m.e_sense * t * t * w + m.e_report[0] * m.t_report * t * w
                + f.miss * f.prr(0) * f.e_transmit[0] * f.t_data)
        assert total_energy_nonharvesting(m, 0, t) == pytest.approx(want, rel=1e-14)

    def test_harvesting_never_costs(self, fig7_model):
        for t in np.geomspace(1e-6, 0.09, 12):
            assert total_energy(fig7_model, 0, t) <= \
                total_energy_nonharvesting(fig7_model, 0, t)

    def test_undetectable_band_disables_credit(self):
        # an absurd threshold keeps every sample below it, so the detector
        # never fires and both accounts coincide exactly
        m = model_for("table1", ["policy.threshold=400 dB"])
        assert m.delta == 1.0
        for t in (1e-5, 1e-3):
            assert m.frame(t).p_detect == 0.0
            assert total_energy(m, 0, t) == total_energy_nonharvesting(m, 0, t)

    def test_convex_on_window(self, table1_model):
        ts = np.linspace(5e-7, table1_model.t_listen - 1e-5, 200)
        es = np.array([total_energy(table1_model, 0, t) for t in ts])
        second = np.diff(es, 2)
        scale = np.max(np.abs(es))
        assert np.all(second >= -1e-9 * scale)


class TestExpectedData:
    def test_formula(self, table1_model):
        m = table1_model
        t = 2e-6
        want = m.miss(t) * m.frame(t).prr(0) * m.rate * (m.t_listen - t)
        assert m.frame(t).data(0) == pytest.approx(want, rel=1e-14)

    def test_vanishes_with_data_slot(self, table1_model):
        m = table1_model
        tail = m.frame(m.t_listen - 1e-9).data(0)
        assert tail < 1e-2

    def test_decreasing_in_sensing_time(self, table1_model):
        ds = [table1_model.frame(t).data(0) for t in np.geomspace(1e-6, 1e-3, 12)]
        assert all(b < a for a, b in zip(ds, ds[1:]))


class TestTransformedConstraint:
    def test_zero_floor_is_slack_constant(self, table1_model):
        m = table1_model
        gamma_rate = math.expm1(math.log(2.0) * m.rate / m.policy.bandwidth)
        assert m.frame(1e-5).constraint(0, 0.0) == pytest.approx(-gamma_rate)

    def test_rejects_negative_floor(self, table1_model):
        with pytest.raises(ValueError):
            table1_model.frame(1e-5).constraint(0, -1.0)

    def test_rejects_exhausted_window(self, table1_model):
        with pytest.raises(ValueError):
            table1_model.frame(table1_model.t_listen).constraint(0, 10.0)

    def test_sign_matches_data_side(self, table1_model):
        # non-positive exactly when the expected data reaches the floor
        m = table1_model
        d_star = m.frame(1e-6).data(0)
        for t in np.geomspace(2e-7, 3e-4, 15):
            c = m.frame(t).constraint(0, d_star)
            d = m.frame(t).data(0)
            assert (c <= 0.0) == (d >= d_star), f"t = {t}"

    def test_deep_infeasibility_saturates(self, table1_model):
        d_star = table1_model.frame(1e-6).data(0)
        assert table1_model.frame(1e-3).constraint(0, d_star) == math.inf

    def test_increasing_and_convex_where_finite(self, table1_model):
        m = table1_model
        d_star = m.frame(1.5e-6).data(0)
        ts = np.linspace(3e-7, 3e-6, 60)
        vals = np.array([m.frame(t).constraint(0, d_star) for t in ts])
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) > 0.0)
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9 * np.max(np.abs(vals)))


class TestEnergySlope:
    def test_matches_finite_difference(self, table1_model):
        m = table1_model
        for t in (1e-6, 5e-6, 1e-4, 1e-2):
            h = 1e-4 * t
            fd = (total_energy(m, 0, t + h) - total_energy(m, 0, t - h)) / (2 * h)
            assert m.frame(t).slope(0) == pytest.approx(fd, rel=1e-4, abs=1e-12)

    def test_sign_agrees_with_closed_form_check(self, table1_model):
        m = table1_model
        scale = abs(m.frame(1e-4).slope(0))
        for t in np.geomspace(3e-7, 1e-2, 25):
            s = m.frame(t).slope(0)
            if abs(s) < 1e-9 * scale:
                continue
            assert m.frame(t).necessary_condition(0) == (s >= 0.0), f"t = {t}"

    def test_always_detecting_band(self):
        # duty 1 with a zero threshold: every sample sees an active primary
        # above the bar, so the per-sample miss is exactly zero
        m = model_for("table1", ["primary.duty=1", "policy.threshold=0 W"])
        assert m.delta == 0.0
        assert m.frame(1e-6).p_detect == 1.0
        assert m.frame(1e-5).necessary_condition(0)
        assert m.frame(1e-5).slope(0) > 0.0


class TestOptimize:
    def test_unconstrained_interior(self, table1_model):
        opt = optimize_sensing_time(table1_model, 0, 0.0)
        assert opt.t_sense == pytest.approx(3.737e-06, abs=2e-7)
        assert not opt.constraint_active
        assert opt.multiplier == 0.0
        assert table1_model.frame(opt.t_sense).slope(0) >= 0.0

    def test_beats_dense_grid(self, table1_model):
        opt = optimize_sensing_time(table1_model, 0, 0.0)
        ts = np.geomspace(TIME_TOL, table1_model.t_listen - TIME_TOL, 500)
        grid_min = min(total_energy(table1_model, 0, t) for t in ts)
        assert opt.energy <= grid_min + 1e-12 * abs(grid_min) + 1e-30

    def test_deterministic(self, table1_model):
        a = optimize_sensing_time(table1_model, 0, 0.0)
        b = optimize_sensing_time(table1_model, 0, 0.0)
        assert a == b

    def test_active_floor_pins_the_edge(self, table1_model):
        m = table1_model
        d_star = m.frame(1e-6).data(0)
        opt = optimize_sensing_time(m, 0, d_star)
        assert opt.constraint_active
        assert opt.t_sense == pytest.approx(1e-6, rel=1e-6)
        assert opt.data == pytest.approx(d_star, rel=1e-9)
        c = m.frame(opt.t_sense).constraint(0, d_star)
        assert abs(c) <= 1e-6
        assert opt.multiplier != 0.0
        assert abs(opt.multiplier * c) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_multiplier_is_the_kkt_multiplier(self, n):
        # a floor at the data of half the free optimum is active, and its
        # multiplier is mu = -dE/dc > 0 (Boyd & Vandenberghe 2004, sec. 5.5)
        c = relay_ladder_conf(ladder_conf(preset("table1"), 1.0, n, 0.01), 0.5, 0.5, n, 0.005)
        scn = scenario_from_conf(c)
        m, i = scn.energy_model(), scn.relay
        d_star = m.frame(0.5 * optimize_sensing_time(m, i, 0.0).t_sense).data(i)
        opt = optimize_sensing_time(m, i, d_star)
        assert opt.constraint_active
        lo, hi = m.frame(opt.t_sense * (1.0 - 1e-4)), m.frame(opt.t_sense * (1.0 + 1e-4))
        want = -((hi.energy(i) - lo.energy(i))
                 / (hi.constraint(i, d_star) - lo.constraint(i, d_star)))
        assert opt.multiplier > 0.0
        assert opt.multiplier == pytest.approx(want, rel=1e-4)

    def test_zero_floor_has_a_zero_multiplier(self):
        # a zero floor is slack at every sensing time, also where the band is
        # sometimes missed: the multiplier once divided by the floor
        m = model_for("default")
        f = m.frame(1e-6)
        assert f.miss > 0.0
        assert [f.multiplier(i, 0.0) for i in range(m.n_relays)] == [0.0] * m.n_relays

    def test_slack_floor_changes_nothing(self, table1_model):
        m = table1_model
        free = optimize_sensing_time(m, 0, 0.0)
        eased = optimize_sensing_time(m, 0, m.frame(1e-5).data(0))
        assert not eased.constraint_active
        assert eased.multiplier == 0.0
        assert eased.t_sense == pytest.approx(free.t_sense, abs=2 * TIME_TOL)

    def test_unreachable_floor_raises(self, table1_model):
        m = table1_model
        d_star = 100.0 * m.frame(TIME_TOL).data(0)
        with pytest.raises(InfeasibleDataError) as err:
            optimize_sensing_time(m, 0, d_star)
        assert err.value.d_star == d_star
        assert err.value.max_data < d_star

    def test_rejects_negative_floor(self, table1_model):
        with pytest.raises(ValueError):
            optimize_sensing_time(table1_model, 0, -1.0)

    def test_harvesting_scenario_interior(self, fig7_model):
        opt = optimize_sensing_time(fig7_model, 0, 0.0)
        assert 0.0 < opt.t_sense < fig7_model.t_listen
        assert opt.energy < 0.0
        assert fig7_model.frame(opt.t_sense).slope(0) >= 0.0


class TestEcg:
    def test_formula(self, fig7_model):
        m = fig7_model
        t = 0.02
        pd = 1.0 - m.miss(t)
        t_data = m.t_listen - t
        f = m.frame(t)
        consumed = (m.e_sense * t + m.e_report[0] * m.t_report * t * m.policy.bandwidth
                    + (1.0 - pd) * f.prr(0) * f.e_transmit[0] * t_data)
        want = consumed / (pd * m.harvest_mean[0] * t_data)
        assert ecg(m, 0, t) == pytest.approx(want, rel=1e-14)

    def test_positive(self, fig7_model):
        for t in (1e-4, 0.02, 0.08):
            assert ecg(fig7_model, 0, t) > 0.0

    def test_undetectable_band_is_infinite(self):
        # p_detect == 0 harvests nothing: the ratio is inf, as in the ledger
        for override in ("policy.threshold=400 dB", "primary.duty=0"):
            m = model_for("table1", [override])
            assert m.frame(0.02).p_detect == 0.0
            assert ecg(m, 0, 0.02) == math.inf, override


STOCK_PRESETS = ("fig3", "fig4", "fig6", "fig7", "fig8", "table1", "default")


class TestFrameLedger:
    """`EnergyModel.frame(t)` is the one per-relay ledger at a sensing time."""

    def test_per_relay_figures(self, fig7_model):
        f = fig7_model.frame(0.02)
        for i in range(fig7_model.n_relays):
            figures = (f.energy(i), f.energy_nonharvesting(i), f.data(i),
                       f.listen_linear(i), f.ecg(i))
            assert all(math.isfinite(v) for v in figures)
            assert f.listen_linear(i) > 0.0
        assert f.t_sense == 0.02

    def test_undetectable_band_reports_infinite_ratio(self):
        # the ledger and the public function report the same infinite ratio
        m = model_for("fig7", ["policy.threshold=400 dB"])
        for i in range(m.n_relays):
            for t in (1e-5, 0.02, 0.09):
                assert m.frame(t).ecg(i) == ecg(m, i, t) == math.inf

    @given(frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
           duty=st.floats(min_value=0.0, max_value=1.0),
           relay=st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_harvesting_never_raises_energy(self, frac, duty, relay):
        m = model_for("fig7", ["primary.duty=%r" % duty])
        t = frac * m.t_listen
        assert total_energy(m, relay, t) <= total_energy_nonharvesting(m, relay, t)
        ratio = m.frame(t).ecg(relay)
        assert ratio > 0.0 or ratio == math.inf

    @pytest.mark.parametrize("name", STOCK_PRESETS)
    def test_methods_wrappers_and_cli_rows_agree(self, name, tmp_path, capsys):
        conf = preset(name)
        scn = scenario_from_conf(conf)
        m, t = scn.energy_model(), scn.t_sense
        f = m.frame(t)
        rows = []
        for i in range(m.n_relays):
            row = (f.energy(i), f.energy_nonharvesting(i), f.ecg(i), f.data(i))
            assert row[:3] == (total_energy(m, i, t), total_energy_nonharvesting(m, i, t),
                               ecg(m, i, t))
            rows.append("%-6d %-14.6g %-14.6g %-14.6g %-12.6g" % ((i,) + row))
        cp = configparser.ConfigParser()
        cp.read_dict(conf)
        path = tmp_path / "scenario.ini"
        with open(path, "w") as fh:
            cp.write(fh)
        assert cli.main(["--no-mc", "--config", str(path), "energy"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "t_sense = %.6g s, p_detect = %.9g" % (t, f.p_detect)
        assert printed[2:] == rows


class TestCoefficientBuilds:
    """Every evaluation at one sensing time shares a single frame, and so a
    single transmission-coefficient build for all relays."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = energy_opt.build_trans_coeffs

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(energy_opt, "build_trans_coeffs", counted)
        return calls

    def test_one_build_per_evaluation(self, builds):
        # the model keeps each frame's fields: every later reader at 0.02 s shares them
        m = model_for("fig7")
        f = m.frame(0.02)
        for fn in (total_energy, ecg):
            fn(m, 0, 0.02)
        m.frame(0.02).necessary_condition(0)
        for fn in (mcsim.mc_frame_energy, mcsim.mc_ecg):
            fn(m, 0, 0.02, trials=1000, seed=1)
        assert m.frame(0.02) == f
        assert len(builds) == 1
        m.frame(0.03)
        assert len(builds) == 2

    def test_one_build_per_optimisation_point(self, builds, monkeypatch):
        # the search revisits its bracket ends: each distinct time builds once
        m = model_for("table1")
        asked = []
        real = m.frame
        monkeypatch.setattr(m, "frame", lambda t: asked.append(t) or real(t))
        optimize_sensing_time(m, 0, 0.0)
        assert len(builds) == len(set(asked)) < len(asked)

    def test_one_build_per_breakdown(self, builds, capsys):
        # `energy` prints both relays of the default preset from one frame,
        # which its simulation of relay 0 reads too
        for no_mc in ([], ["--no-mc"]):
            builds.clear()
            assert cli.main(no_mc + ["--trials", "2000", "energy"]) == 0
            assert len(capsys.readouterr().out.splitlines()) == 2 + 2 + (not no_mc)
            assert len(builds) == 1, no_mc

    @pytest.mark.parametrize("no_mc", [[], ["--no-mc"]])
    def test_one_build_per_figure_row(self, builds, tmp_path, no_mc):
        # fig7 reads four pairs per sensing time off one model
        assert cli.main(no_mc + ["--trials", "2000", "--out", str(tmp_path / "f.csv"),
                                 "figure", "fig7"]) == 0
        assert len(builds) == 19

    def test_frame_reuses_peak_gains(self, monkeypatch):
        # the peak-gain expectations depend on the geometry only: once the
        # model is built, evaluating a frame must not recompute them
        m = model_for("default")

        def forbidden(means):
            raise AssertionError("max_exp_expectation called in a frame evaluation")

        for mod in (fading, sensing, transmission, energy_opt):
            if hasattr(mod, "max_exp_expectation"):
                monkeypatch.setattr(mod, "max_exp_expectation", forbidden)
        for t in (1e-6, 0.02, 0.05):
            m.frame(t)

    def test_gains_are_computed_once(self, monkeypatch):
        # the mean gains depend on the geometry only: once the LinkSet is
        # built, no closed form or simulator derives one again
        scn = scenario_from_conf(preset("fig7"))
        links, primary, policy = scn.links, scn.primary, scn.policy
        calls = []
        real = fading.mean_channel_gain
        monkeypatch.setattr(fading, "mean_channel_gain",
                            lambda d, alpha: calls.append(d) or real(d, alpha))
        m = scn.energy_model()
        for t in (0.01, 0.02, 0.05):
            pd = m.frame(t).p_detect
        transmission.outage_probability(scn.gamma_th, links, primary, policy, pd, scn.rho)
        mcsim.mc_outage(links, primary, policy, scn.gamma_th, pd, scn.rho, 1000, 1)
        mcsim.mc_detection(links, primary, policy, policy.threshold, scn.n_samples, 1000, 1)
        mcsim.mc_harvest(links, primary, policy, scn.relay, pd, 1000, 1)
        harvest.avg_harvested_power(links, primary, policy, scn.relay, pd)
        assert calls == []

    def test_table1_optimise_budget(self, builds):
        c = relay_ladder_conf(ladder_conf(preset("table1"), 1.0, 4, 0.01),
                              0.5, 0.5, 4, 0.005)
        scn = scenario_from_conf(c)
        optimize_sensing_time(scn.energy_model(), scn.relay, scn.d_star)
        assert len(builds) <= 38

    def test_table1_optimise_evaluates_no_e1(self, monkeypatch):
        # a frame never reads the AF gain normaliser, the one data-phase
        # constant that needs E1; the outage reads it, once per relay
        c = relay_ladder_conf(ladder_conf(preset("table1"), 1.0, 4, 0.01),
                              0.5, 0.5, 4, 0.005)
        scn = scenario_from_conf(c)
        model = scn.energy_model()
        calls = []
        for mod in (specfun, sensing, transmission):
            real = mod.exp_scaled_gamma_upper_0
            monkeypatch.setattr(mod, "exp_scaled_gamma_upper_0",
                                lambda x, real=real: calls.append(x) or real(x))
        opt = optimize_sensing_time(model, scn.relay, scn.d_star)
        assert calls == []
        transmission.outage_probability(scn.gamma_th, scn.links, scn.primary, scn.policy,
                                        model.frame(opt.t_sense).p_detect, scn.rho)
        assert len(calls) == scn.links.n_relays == 4


class TestLazyOdds:
    """A frame prices relay i's selection odds only when relay i is read,
    and keeps them with that sensing time's fields."""

    def test_one_selection_prob_per_frame(self, monkeypatch):
        # the table1 cell with four relays and three primaries: the
        # optimiser reads one relay, so each frame it builds prices one
        c = relay_ladder_conf(ladder_conf(preset("table1"), 1.0, 3, 0.01),
                              0.5, 0.5, 4, 0.005)
        scn = scenario_from_conf(c)
        model = scn.energy_model()
        calls = {"build_trans_coeffs": [], "relay_selection_prob": []}
        for name, seen in calls.items():
            real = getattr(energy_opt, name)
            monkeypatch.setattr(energy_opt, name,
                                lambda *a, real=real, seen=seen: seen.append(a) or real(*a))
        opt = optimize_sensing_time(model, scn.relay, scn.d_star)
        builds, odds = calls["build_trans_coeffs"], calls["relay_selection_prob"]
        assert len(builds) > 1
        assert len(odds) == len(builds)
        assert all(i == scn.relay for _, i in odds)
        f = model.frame(opt.t_sense)
        want = tuple(transmission.relay_selection_prob(f.coeffs.snr_means, i) for i in range(4))
        assert tuple(f.prr(i) for i in range(4)) == want
        assert sum(f.prr(i) for i in range(4)) == sum(want)
        # the other three relays, once each, on the first read only
        assert len(odds) == len(builds) + 3
        for i in range(4):
            f.prr(i)
        assert len(odds) == len(builds) + 3

    def test_reads_like_a_tuple(self, fig7_model):
        f = fig7_model.frame(0.021)
        want = tuple(transmission.relay_selection_prob(f.coeffs.snr_means, i)
                     for i in range(fig7_model.n_relays))
        assert tuple(f.prr(i) for i in range(fig7_model.n_relays)) == want
        assert fig7_model.frame(0.021).odds is f.odds

    def test_threads_racing_on_fresh_odds_read_one_value(self, fig7_model):
        # more threads than cores, switching often: every thread reads every
        # relay's odds of the same fresh frames, and each entry that two
        # threads fill at once holds the one value both compute
        times = [0.03 + 1e-4 * k for k in range(40)]
        frames = [fig7_model.frame(t) for t in times]
        want = [tuple(transmission.relay_selection_prob(f.coeffs.snr_means, i)
                      for i in range(fig7_model.n_relays)) for f in frames]
        seen, errors = [], []

        def read():
            try:
                seen.append([tuple(f.prr(i) for i in range(fig7_model.n_relays))
                             for f in frames])
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert seen == [want] * len(threads)
        assert [tuple(f.prr(i) for i in range(fig7_model.n_relays)) for f in frames] == want


# every public entry point that takes a relay index, called on relay i of m
RELAY_ENTRY_POINTS = {
    "LinkSet.check_relay": lambda m, i: m.links.check_relay(i),
    "report_e2e_cdf": lambda m, i: sensing.report_e2e_cdf(1.0, m.report, i),
    "harvest_mean_power": lambda m, i: harvest.harvest_mean_power(
        m.links, m.primary, m.policy, i),
    "avg_harvested_power": lambda m, i: harvest.avg_harvested_power(
        m.links, m.primary, m.policy, i, 0.5),
    "relay_selection_prob": lambda m, i: transmission.relay_selection_prob(
        m.frame(0.02).coeffs.snr_means, i),
    "mc_harvest": lambda m, i: mcsim.mc_harvest(
        m.links, m.primary, m.policy, i, 0.5, trials=100, seed=1),
    "mc_clipped_gain": lambda m, i: mcsim.mc_clipped_gain(
        m.links, m.primary, m.policy, i, 1.0, 2.0, trials=100, seed=1),
    "mc_frame_energy": lambda m, i: mcsim.mc_frame_energy(m, i, 0.02, trials=100, seed=1),
    "mc_ecg": lambda m, i: mcsim.mc_ecg(m, i, 0.02, trials=100, seed=1),
    "total_energy": lambda m, i: total_energy(m, i, 0.02),
    "total_energy_nonharvesting": lambda m, i: total_energy_nonharvesting(m, i, 0.02),
    "Frame.energy": lambda m, i: m.frame(0.02).energy(i),
    "Frame.energy_nonharvesting": lambda m, i: m.frame(0.02).energy_nonharvesting(i),
    "Frame.data": lambda m, i: m.frame(0.02).data(i),
    "Frame.listen_linear": lambda m, i: m.frame(0.02).listen_linear(i),
    "Frame.ecg": lambda m, i: m.frame(0.02).ecg(i),
    "Frame.slope": lambda m, i: m.frame(0.02).slope(i),
    "Frame.constraint": lambda m, i: m.frame(0.02).constraint(i, 1.0),
    "Frame.multiplier": lambda m, i: m.frame(0.02).multiplier(i, 1.0),
    "Frame.necessary_condition": lambda m, i: m.frame(0.02).necessary_condition(i),
    "Frame.prr": lambda m, i: m.frame(0.02).prr(i),
    "optimize_sensing_time": lambda m, i: optimize_sensing_time(m, i, 0.0),
    "ecg": lambda m, i: ecg(m, i, 0.02),
}


class TestRelayIndex:
    @pytest.mark.parametrize("name", sorted(RELAY_ENTRY_POINTS))
    def test_out_of_range_index_is_rejected(self, name, fig7_model):
        # -1 would otherwise alias the last of fig7's four relays
        call = RELAY_ENTRY_POINTS[name]
        call(fig7_model, fig7_model.n_relays - 1)
        for bad in (-1, fig7_model.n_relays):
            with pytest.raises(ValueError, match=r"relay index %d out of range: "
                               r"the network has 4 relay\(s\)" % bad):
                call(fig7_model, bad)
        # a frame simulator's state in the held slot is the valid call's
        frame = mcsim._held[2]
        assert frame is None or frame[1] == fig7_model.n_relays - 1


# (entry point, argument, bad value) -> (call on model m with the bad value,
# the message it raises); nan once passed every `x < lo` check below, and
# nothing checked rho or the samplers' thresholds
SCALAR_CHECKS = {
    ("detection_probability", "lam", math.nan): (lambda m, v: sensing.detection_probability(
        v, 10.0, m.links, m.primary, m.policy), "SNR threshold must be non-negative"),
    ("detection_probability", "n_samples", math.nan): (
        lambda m, v: sensing.detection_probability(m.policy.threshold, v, m.links,
                                                   m.primary, m.policy), "sample count"),
    ("detection_probability", "n_samples", math.inf): (
        lambda m, v: sensing.detection_probability(m.policy.threshold, v, m.links,
                                                   m.primary, m.policy), "sample count"),
    ("mc_detection", "n_samples", math.nan): (lambda m, v: mcsim.mc_detection(
        m.links, m.primary, m.policy, m.policy.threshold, v, trials=100, seed=1),
        "sample count"),
    ("InterferenceLaw.cdf", "x", math.nan): (lambda m, v: m.report.direct.cdf(v),
                                              "SNR threshold must be non-negative"),
    ("report_e2e_cdf", "x", math.nan): (lambda m, v: sensing.report_e2e_cdf(v, m.report, 0),
                                         "SNR threshold must be non-negative"),
    ("avg_clipped_gain", "threshold_t", math.nan): (lambda m, v: sensing.avg_clipped_gain(
        v, m.report.relays[0], m.report.u_report[0]), "clipping threshold"),
    ("mc_clipped_gain", "threshold_t", math.nan): (lambda m, v: mcsim.mc_clipped_gain(
        m.links, m.primary, m.policy, 0, v, 2.0, trials=100, seed=1), "clipping threshold"),
    ("outage_probability", "gamma_th", math.nan): (
        lambda m, v: transmission.outage_probability(v, m.links, m.primary, m.policy,
                                                     0.9, 0.5),
        "SNR threshold must be non-negative"),
    **{("outage_probability", "rho", rho): (
        lambda m, v: transmission.outage_probability(m.policy.threshold, m.links, m.primary,
                                                     m.policy, 0.9, v),
        r"rho must lie in \[0, 1\]") for rho in (math.nan, -0.5, 2.0)},
    **{("mc_outage", "rho", rho): (lambda m, v: mcsim.mc_outage(
        m.links, m.primary, m.policy, m.policy.threshold, 0.9, v, trials=100, seed=1),
        r"rho must lie in \[0, 1\]") for rho in (math.nan, -0.5, 2.0)},
    ("optimize_sensing_time", "d_star", math.nan): (
        lambda m, v: optimize_sensing_time(m, 0, v), "data floor must be non-negative"),
    ("Frame.constraint", "d_star", math.nan): (lambda m, v: m.frame(0.02).constraint(0, v),
                                                "data floor must be non-negative"),
    **{("mc_detection", "lam", lam): (lambda m, v: mcsim.mc_detection(
        m.links, m.primary, m.policy, v, 10.0, trials=100, seed=1),
        "SNR threshold must be non-negative") for lam in (math.nan, -1.0)},
    **{("mc_outage", "gamma_th", gamma): (lambda m, v: mcsim.mc_outage(
        m.links, m.primary, m.policy, v, 0.9, 0.5, trials=100, seed=1),
        "SNR threshold must be non-negative") for gamma in (math.nan, -1.0)},
    ("Frame.multiplier", "d_star", math.nan): (lambda m, v: m.frame(0.02).multiplier(0, v),
                                                "data floor must be non-negative"),
}


@pytest.mark.parametrize("case", list(SCALAR_CHECKS), ids=lambda c: "%s-%s=%g" % c)
def test_nan_and_out_of_range_scalars_are_rejected(case, fig7_model):
    call, message = SCALAR_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call(fig7_model, case[2])
