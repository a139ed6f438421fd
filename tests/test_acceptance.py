"""Release gate: the nine checks that must hold before anything ships.

Each test prints one PASS/FAIL verdict line (also echoed in the terminal
summary via conftest). Tolerances here are contractual; do not loosen them
to make a failure go away.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

import conftest
import oracles
from relaysense import energy_opt, harvest, mcsim, sensing, specfun, transmission
from relaysense.cli import main as cli_main
from relaysense.fading import activity_mixture, max_exp_expectation
from relaysense.scenario import (apply_overrides, ladder_conf, preset,
                                 relay_ladder_conf, scenario_from_conf)

MC_TRIALS = 10**6
Z_GATE = 3.0
FIGURE_BUDGET_S = 300.0
# sample quantiles at which criterion 6 evaluates the interference CDF
KS_KNOTS = 20000


@contextmanager
def criterion(num, desc):
    notes = []
    try:
        yield notes
    except BaseException:
        line = "ACCEPTANCE %d: FAIL - %s" % (num, desc)
        print(line)
        conftest.acceptance_lines.append(line)
        raise
    extra = " (%s)" % "; ".join(notes) if notes else ""
    line = "ACCEPTANCE %d: PASS - %s%s" % (num, desc, extra)
    print(line)
    conftest.acceptance_lines.append(line)


def _detection(scn, lam=None, n_samples=None):
    return sensing.detection_probability(
        lam if lam is not None else scn.policy.threshold,
        n_samples if n_samples is not None else scn.n_samples,
        scn.links, scn.primary, scn.policy)


# --- 1: closed forms vs simulation on every figure grid ---------------------

def test_criterion_1_analytic_vs_mc():
    with criterion(1, "analytic within 3 MC stderr at 1e6 trials on all figure grids") as notes:
        worst = 0.0

        start = time.monotonic()
        conf = preset("fig3")
        for n_pu in (1, 2, 3):
            for k in range(15):
                scn = scenario_from_conf(ladder_conf(conf, round(0.1 * (k + 1), 10), n_pu))
                assert scn.trials == MC_TRIALS
                pd = _detection(scn)
                est = mcsim.mc_detection(scn.links, scn.primary, scn.policy,
                                         scn.policy.threshold, scn.n_samples,
                                         scn.trials, scn.seed, workers=scn.workers)
                worst = max(worst, abs(est.z_score(pd)))
                assert abs(est.z_score(pd)) <= Z_GATE
        t_fig3 = time.monotonic() - start
        assert t_fig3 <= FIGURE_BUDGET_S

        start = time.monotonic()
        conf = preset("fig4")
        for rho in (0.5, 0.9, 1.0):
            for db in range(0, 31, 2):
                scn = scenario_from_conf(apply_overrides(
                    conf, ["policy.p_max=%d dB" % db, "csi.rho=%g" % rho]))
                pd = _detection(scn)
                p_out = transmission.outage_probability(
                    scn.gamma_th, scn.links, scn.primary, scn.policy, pd, rho)
                est = mcsim.mc_outage(scn.links, scn.primary, scn.policy,
                                      scn.gamma_th, pd, rho, scn.trials, scn.seed,
                                      workers=scn.workers)
                worst = max(worst, abs(est.z_score(p_out)))
                assert abs(est.z_score(p_out)) <= Z_GATE
        t_fig4 = time.monotonic() - start
        assert t_fig4 <= FIGURE_BUDGET_S

        start = time.monotonic()
        conf = preset("fig3")
        for k in range(10):
            scn = scenario_from_conf(ladder_conf(conf, round(0.1 * (k + 1), 10), 3))
            pd = _detection(scn)
            rep = harvest.avg_harvested_power(scn.links, scn.primary, scn.policy,
                                              scn.relay, pd)
            est = mcsim.mc_harvest(scn.links, scn.primary, scn.policy, scn.relay,
                                   pd, scn.trials, scn.seed, workers=scn.workers)
            worst = max(worst, abs(est.z_score(rep.usable_power)))
            assert abs(est.z_score(rep.usable_power)) <= Z_GATE
        t_harv = time.monotonic() - start
        assert t_harv <= FIGURE_BUDGET_S

        start = time.monotonic()
        scn = scenario_from_conf(preset("fig7"))
        model = scn.energy_model()
        for k in range(19):
            t_s = round(0.005 * (k + 1), 10)
            for harvesting in (True, False):
                if harvesting:
                    want = energy_opt.total_energy(model, scn.relay, t_s)
                else:
                    want = energy_opt.total_energy_nonharvesting(model, scn.relay, t_s)
                est = mcsim.mc_frame_energy(model, scn.relay, t_s, scn.trials,
                                            scn.seed, workers=scn.workers,
                                            harvesting=harvesting)
                worst = max(worst, abs(est.z_score(want)))
                assert abs(est.z_score(want)) <= Z_GATE
        t_fig7 = time.monotonic() - start
        assert t_fig7 <= FIGURE_BUDGET_S

        notes.append("worst |z| = %.2f" % worst)
        notes.append("fig3 %.0fs, fig4 %.0fs, harvest %.0fs, fig7 %.0fs"
                     % (t_fig3, t_fig4, t_harv, t_fig7))


# --- 2: published optimal-sensing-time table ---------------------------------

PUBLISHED_T_STAR = [
    [0.0873, 0.0815, 0.0658, 0.000115],
    [0.0873, 0.0815, 0.00372, 0.000115],
    [0.0873, 0.0815, 0.00372, 0.000115],
    [0.0873, 0.0815, 0.00370, 0.000106],
]


def _table1_models():
    conf = preset("table1")
    out = []
    for n_relays in (1, 2, 3, 4):
        for n_pu in (1, 2, 3, 4):
            c = relay_ladder_conf(ladder_conf(conf, 1.0, n_pu, 0.01),
                                  0.5, 0.5, n_relays, 0.005)
            scn = scenario_from_conf(c)
            out.append((n_relays, n_pu, scn, scn.energy_model()))
    return out


def test_criterion_2_table_reproduction():
    with criterion(2, "optimal sensing-time table vs published values, KKT fallback on drift") as notes:
        drifted = 0
        for n_relays, n_pu, scn, model in _table1_models():
            opt = energy_opt.optimize_sensing_time(model, scn.relay, scn.d_star)
            want = PUBLISHED_T_STAR[n_relays - 1][n_pu - 1]
            if abs(opt.t_sense - want) <= 0.10 * want:
                continue
            drifted += 1
            # fallback gate: our optimum must still satisfy the first-order
            # optimality suite even when it disagrees with the printed table
            assert opt.multiplier >= 0.0
            assert opt.data >= scn.d_star
            assert model.frame(opt.t_sense).necessary_condition(scn.relay)
            grid = np.linspace(1e-6, model.t_listen - 1e-5, 160)
            vals = [energy_opt.total_energy(model, scn.relay, t) for t in grid]
            scale = max(abs(v) for v in vals)
            assert opt.energy <= min(vals) + 1e-9 * scale
            print("table drift: M=%d L=%d ours %.3e s vs published %.3e s"
                  % (n_relays, n_pu, opt.t_sense, want))
        if drifted:
            notes.append("%d/16 cells drift beyond 10%%; KKT fallback suite passed "
                         "for every drifted cell" % drifted)
        else:
            notes.append("all 16 cells within 10% of published values")


# --- 3: detection anchor and monotonic structure -----------------------------

def test_criterion_3_detection_target():
    with criterion(3, "P_d >= 0.90 at 0.4 km with 3 primaries; nonincreasing in distance and threshold") as notes:
        conf = preset("fig3")
        anchor = _detection(scenario_from_conf(ladder_conf(conf, 0.4, 3)))
        assert anchor >= 0.90
        notes.append("anchor P_d = %.4f" % anchor)

        for n_pu in (1, 2, 3):
            curve = [_detection(scenario_from_conf(
                ladder_conf(conf, round(0.1 * (k + 1), 10), n_pu)))
                for k in range(15)]
            assert all(a >= b - 1e-15 for a, b in zip(curve, curve[1:]))

        scn = scenario_from_conf(ladder_conf(conf, 0.4, 3))
        lam0 = scn.policy.threshold
        sweep = [_detection(scn, lam=fac * lam0) for fac in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a >= b - 1e-15 for a, b in zip(sweep, sweep[1:]))


# --- 4: outage structure ------------------------------------------------------

def test_criterion_4_outage_structure():
    with criterion(4, "outage nonincreasing in P_max; M=4 <= M=1 for iid rho=0.9; M=1 rho-invariant") as notes:
        conf = preset("fig4")

        def outage_curve(c, rho):
            out = []
            for db in range(0, 31, 2):
                scn = scenario_from_conf(apply_overrides(
                    c, ["policy.p_max=%d dB" % db, "csi.rho=%g" % rho]))
                pd = _detection(scn)
                out.append(transmission.outage_probability(
                    scn.gamma_th, scn.links, scn.primary, scn.policy, pd, rho))
            return out

        for rho in (0.5, 0.9, 1.0):
            curve = outage_curve(conf, rho)
            assert all(a >= b - 1e-15 for a, b in zip(curve, curve[1:]))

        shared = ladder_conf(conf, 0.4, 2)
        iid = {m: outage_curve(relay_ladder_conf(shared, 0.1, 0.1, m, 0.0), 0.9)
               for m in (1, 4)}
        assert all(p4 <= p1 + 1e-15 for p4, p1 in zip(iid[4], iid[1]))
        notes.append("iid M=4 vs M=1 at 30 dB: %.2e vs %.2e" % (iid[4][-1], iid[1][-1]))

        single = relay_ladder_conf(shared, 0.1, 0.1, 1, 0.0)
        a = outage_curve(single, 0.3)
        b = outage_curve(single, 0.8)
        assert all(x == pytest.approx(y, rel=1e-12) for x, y in zip(a, b))


# --- 5: harvesting flips the frame energy sign --------------------------------

def test_criterion_5_energy_sign_flip():
    with criterion(5, "harvesting energy < 0 at 20 ms sensing while baseline stays > 0") as notes:
        scn = scenario_from_conf(preset("fig7"))
        model = scn.energy_model()
        e_harv = energy_opt.total_energy(model, scn.relay, 0.020)
        assert e_harv < 0.0
        notes.append("E_harv(20 ms) = %.3f J" % e_harv)
        for k in range(19):
            t_s = round(0.005 * (k + 1), 10)
            eh = energy_opt.total_energy(model, scn.relay, t_s)
            en = energy_opt.total_energy_nonharvesting(model, scn.relay, t_s)
            assert en > 0.0
            # the harvesting account is exactly the baseline minus the credit
            credit = (model.frame(t_s).p_detect * model.harvest_mean[scn.relay]
                      * (model.t_listen - t_s))
            assert eh == en - credit


# --- 6: distribution sanity ----------------------------------------------------

def test_criterion_6_distribution_sanity():
    with criterion(6, "survival-integral means, CDF limits, KS vs 1e6 empirical samples") as notes:
        scn = scenario_from_conf(ladder_conf(preset("fig3"), 0.4, 3))
        means = scn.links.g_pu_dst
        scale = scn.primary.tx_power / scn.policy.noise_power
        duty = scn.primary.duty
        atom = (1.0 - duty) ** len(means)
        law = activity_mixture(means, duty, scale)

        # E[X] = duty * scale * sum(means) is the integral of the survival function
        mean = quad(lambda x: 1.0 - float(law.cdf(x)),
                    0.0, np.inf, limit=200)[0]
        assert mean == pytest.approx(duty * scale * float(np.sum(means)), rel=1e-6)

        grid = np.geomspace(1e-6, 1e6, 400) * scale * float(np.max(means))
        cdf = np.array([law.cdf(x) for x in grid])
        assert float(law.cdf(0.0)) == pytest.approx(atom, rel=1e-12)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)

        scn4 = scenario_from_conf(preset("fig4"))
        coeffs = transmission.build_trans_coeffs(scn4.links, scn4.primary,
                                                 scn4.policy, 0.95)
        mmax = np.asarray(coeffs.snr_means, dtype=float)
        mean = quad(lambda x: 1.0 - float(np.prod(-np.expm1(-x / mmax))),
                    0.0, np.inf, limit=200)[0]
        assert mean == pytest.approx(max_exp_expectation(mmax), rel=1e-6)

        n = 10**6
        ks_crit = 1.6276 / math.sqrt(n)
        rng = np.random.default_rng(20240915)
        # an upper bound on the distance from KS_KNOTS CDF calls, in place
        # of a call at each of the ~875000 distinct draws
        ks_sum = oracles.ks_bound(
            oracles.sample_thinned_sum(rng, n, means, scale, duty),
            lambda xs: [law.cdf(x) for x in xs], KS_KNOTS)
        assert ks_sum < ks_crit

        ks_max = oracles.ks_distance(
            oracles.sample_max_exp(rng, n, mmax),
            lambda x: np.prod(1.0 - np.exp(-x[:, None] / mmax), axis=-1))
        assert ks_max < ks_crit
        notes.append("KS bound %.2e / KS %.2e vs critical %.2e" % (ks_sum, ks_max, ks_crit))


# --- 7: convexity and complementary slackness ---------------------------------

def test_criterion_7_convexity_and_kkt():
    with criterion(7, "objective/constraint second differences >= -1e-9*scale; |mu*constraint| <= 1e-6") as notes:
        worst_cs = 0.0
        for n_relays, n_pu, scn, model in _table1_models():
            grid = np.linspace(5e-7, model.t_listen - 1e-5, 120)
            vals = np.array([energy_opt.total_energy(model, scn.relay, t) for t in grid])
            scale = np.max(np.abs(vals))
            assert np.all(np.diff(vals, 2) >= -1e-9 * scale)

            # the transformed constraint saturates to +inf once the detection
            # exponent overflows; probe the widest finite window of this cell
            t_hi = 3e-6
            while True:
                d_star = model.frame(0.5 * t_hi).data(scn.relay)
                if math.isfinite(model.frame(t_hi).constraint(scn.relay, d_star)):
                    break
                t_hi *= 0.6
            window = np.linspace(0.1 * t_hi, t_hi, 60)
            cons = np.array([model.frame(t).constraint(scn.relay, d_star) for t in window])
            assert np.all(np.isfinite(cons))
            cscale = np.max(np.abs(cons))
            assert np.all(np.diff(cons, 2) >= -1e-9 * cscale)

            opt = energy_opt.optimize_sensing_time(model, scn.relay, scn.d_star)
            slack = abs(opt.multiplier
                        * model.frame(opt.t_sense).constraint(scn.relay, scn.d_star))
            worst_cs = max(worst_cs, slack)
            assert slack <= 1e-6

        # a genuinely active floor must also close the slackness product
        _, _, scn, model = _table1_models()[5]
        free = energy_opt.optimize_sensing_time(model, scn.relay, 0.0)
        d_star = model.frame(0.5 * free.t_sense).data(scn.relay)
        opt = energy_opt.optimize_sensing_time(model, scn.relay, d_star)
        slack = abs(opt.multiplier * model.frame(opt.t_sense).constraint(scn.relay, d_star))
        assert opt.constraint_active
        assert slack <= 1e-6
        worst_cs = max(worst_cs, slack)
        notes.append("worst |mu*constraint| = %.1e" % worst_cs)


# --- 8: special functions vs quadrature oracles --------------------------------

def test_criterion_8_special_functions():
    with criterion(8, "Bessel/exponential-integral kernels match quadrature oracles"):
        # the kernels the closed forms call, each against its quadrature oracle
        for x in np.geomspace(1e-3, 100.0, 50):
            assert specfun.bessel_j0(x) == pytest.approx(oracles.quad_j0(x), abs=1e-12)
            assert specfun.bessel_k1_scaled(x) == pytest.approx(
                oracles.quad_k1(x) * math.exp(x), rel=1e-10)
        for x in np.geomspace(1e-3, 30.0, 50):
            assert specfun.exp_scaled_gamma_upper_0(x) == pytest.approx(
                math.exp(x) * oracles.quad_gamma_upper_0(x), rel=1e-10)


# --- 9: bit-level determinism of the validation pipeline -----------------------

def test_criterion_9_determinism(tmp_path):
    with criterion(9, "validate CSV bit-identical across repeat runs and worker counts"):
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        for path, workers in zip(paths, (1, 1, 3)):
            rc = cli_main(["--trials", "200000", "--seed", "99",
                           "--workers", str(workers), "--out", str(path), "validate"])
            assert rc == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1]
        assert blobs[0] == blobs[2]
