"""Metamorphic relations: changes to a scenario's config that must leave the
closed forms unchanged, or move them by a known bound.

The Monte Carlo oracles take the model from the same code as the closed
forms, so a modelling choice is checked by neither. These relations check
the model from the outside (Chen et al., ACM Computing Surveys 51(1), 2018):
relabelling the relays or the primaries, moving the noise floor under
powers given in dB over it, adding a relay or a primary too far away to
matter, moving the duty towards 0 or 1, making the relays identical, and
making the estimates exact (rho = 1). Every scenario is a stock preset with
config overrides. A data floor below the free optimum's data must leave the
optimum alone; that one is a strict xfail (ROADMAP item 7).

Where a relation holds in exact arithmetic but the float sums run in input
order, the outputs agree to rounding (`assert_agree`), and a strict xfail
records that they do not keep every bit.
"""

import itertools
import math

import pytest

from relaysense import harvest, sensing, transmission
from relaysense.energy_opt import optimize_sensing_time
from relaysense.scenario import (apply_overrides, ladder_conf, preset, relay_ladder_conf,
                                 scenario_from_conf)

import oracles


def closed_forms(name, overrides=()):
    """[p_detect, p_outage, each relay's usable harvest] of a preset with
    overrides, and its Scenario."""
    scn = scenario_from_conf(apply_overrides(preset(name), list(overrides)))
    pd = sensing.detection_probability(scn.policy.threshold, scn.n_samples, scn.links,
                                       scn.primary, scn.policy)
    p_out = transmission.outage_probability(scn.gamma_th, scn.links, scn.primary,
                                            scn.policy, pd, scn.rho)
    usable = [harvest.avg_harvested_power(scn.links, scn.primary, scn.policy, i, pd)
              .usable_power for i in range(scn.links.n_relays)]
    return [pd, p_out, *usable], scn


def assert_agree(got, want):
    """Agreement to rounding. Both probabilities are complements of sums near
    1 (the miss probability; each relay's selection odds less its tails), so
    they carry an absolute error of the order of ulp(1); the harvests are
    sums of positive terms, with a relative one."""
    assert got[:2] == pytest.approx(want[:2], rel=0.0, abs=4 * math.ulp(1.0))
    assert got[2:] == pytest.approx(want[2:], rel=4 * math.ulp(1.0), abs=0.0)


# fig4 with relays of their own distances: per relay (d_src_relay,
# d_relay_dst, its d_pu_relay column)
RELAYS = ((0.1, 0.11, (0.3, 0.31)), (0.12, 0.09, (0.32, 0.33)), (0.14, 0.13, (0.34, 0.35)))


def relay_overrides(relays):
    def row(values):
        return ", ".join("%g" % v for v in values)
    return ["links.d_src_relay=" + row(r[0] for r in relays),
            "links.d_relay_dst=" + row(r[1] for r in relays),
            "links.d_pu_relay=" + "; ".join(row(r[2][l] for r in relays) for l in range(2))]


def relabelled_relays(threshold):
    """(outputs, outputs of the relabelled scenario with its harvests put
    back in the original order) over every order of 2 and 3 relays."""
    for n in (2, 3):
        base = ["policy.threshold=" + threshold]
        want = closed_forms("fig4", base + relay_overrides(RELAYS[:n]))[0]
        for order in itertools.permutations(range(n)):
            got = closed_forms("fig4", base + relay_overrides([RELAYS[k] for k in order]))[0]
            # relay j of the relabelled scenario is relay order[j] of the original
            yield want, got[:2] + [got[2 + order.index(i)] for i in range(n)]


_SUMS_IN_INPUT_ORDER = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 14: the closed forms sum in input order, so a relabelling "
           "can move an output by a few ulps")


class TestRelayPermutation:
    # fig4 detects with certainty at 3 dB, with p_detect 0.11 at 55 dB and
    # 4.2e-9 at 60 dB, where the interference cap sets the data powers
    @pytest.mark.parametrize("threshold", ["3 dB", "55 dB",
                                           pytest.param("60 dB", marks=_SUMS_IN_INPUT_ORDER)])
    def test_every_relabelling_keeps_every_bit(self, threshold):
        for want, got in relabelled_relays(threshold):
            assert got == want

    @pytest.mark.parametrize("threshold", ["3 dB", "55 dB", "60 dB"])
    def test_every_relabelling_agrees_to_rounding(self, threshold):
        for want, got in relabelled_relays(threshold):
            assert_agree(got, want)


FIG3_LADDER = (0.4, 0.41, 0.42)


def relabelled_fig3_primaries():
    want = closed_forms("fig3")[0]
    for order in itertools.permutations(range(3)):
        ladder = ", ".join("%g" % FIG3_LADDER[k] for k in order)
        yield want, closed_forms("fig3", ["links.d_pu=" + ladder])[0]


class TestPrimaryPermutation:
    def test_fig4_swapped_primaries_keep_every_bit(self):
        # the per-side lists and the rows of d_pu_relay, swapped together
        swapped = closed_forms("fig4", ["links.d_pu_src=0.31, 0.3",
                                        "links.d_pu_relay=0.31, 0.31; 0.3, 0.3",
                                        "links.d_pu_dst=0.41, 0.4"])[0]
        assert swapped == closed_forms("fig4")[0]

    @_SUMS_IN_INPUT_ORDER
    def test_every_fig3_order_keeps_every_bit(self):
        # orders (1, 2, 0) and (2, 1, 0) move p_detect by 2 ulps and the
        # harvest by 1
        for want, got in relabelled_fig3_primaries():
            assert got == want

    def test_every_fig3_order_agrees_to_rounding(self):
        for want, got in relabelled_fig3_primaries():
            assert_agree(got, want)


class TestNoiseFloor:
    # fig3 gives the primary power, both secondary power limits and the
    # threshold in dB over the noise floor, so the floor only rescales them
    @pytest.mark.parametrize("floor", ["-100 dBm", "-160 dBm"])
    def test_moving_the_floor_keeps_detection_and_outage(self, floor):
        want = closed_forms("fig3")[0]
        got = closed_forms("fig3", ["policy.noise_power=" + floor])[0]
        assert got[0] == want[0]
        # 1.1e-16 apart, 5e-13 of the outage
        assert_agree(got[:2], want[:2])


class TestFarRelay:
    # a third relay at d km from both the source and the destination: the
    # outage differs only when the selection, by outdated estimate, picks it
    @pytest.mark.parametrize("gamma_th", ["3 dB", "40 dB", "50 dB"])
    @pytest.mark.parametrize("d", ["2", "5"])
    def test_outage_moves_by_at_most_the_relays_selection_odds(self, gamma_th, d):
        base = ["traffic.gamma_th=" + gamma_th]
        (pd, p_out, *_), _ = closed_forms("fig4", base)
        (pd_far, p_out_far, *_), scn = closed_forms("fig4", base + [
            "links.d_src_relay=0.1, 0.1, " + d, "links.d_relay_dst=0.1, 0.1, " + d,
            "links.d_pu_relay=0.3, 0.3, 0.3; 0.31, 0.31, 0.31"])
        assert pd_far == pd  # fig4 detects with certainty either way
        coeffs = transmission.build_trans_coeffs(scn.links, scn.primary, scn.policy, pd)
        odds = transmission.relay_selection_prob(coeffs.snr_means, 2)
        # with the rounding of `assert_agree`: at 3 dB and 5 km the outage
        # rises 1.2e-17 more than the odds, 5.1e-14
        assert abs(p_out_far - p_out) <= odds + 4 * math.ulp(1.0)
        assert odds < 1e-10


def with_frame_energy(name, duty):
    """`closed_forms` at primary.duty=duty, with the frame energy of the
    scenario's relay at its sensing time appended."""
    vals, scn = closed_forms(name, ["primary.duty=%r" % duty])
    return vals + [scn.energy_model().frame(scn.t_sense).energy(scn.relay)]


class TestDutyContinuity:
    # every output is smooth in the duty up to its ends, so the gap to the
    # end's value is linear in the distance eps: it shrinks about 1000-fold
    # from eps = 1e-12 to 1e-15, less the rounding of `assert_agree`. fig6's
    # outage reads -8.9e-16 at duty 1e-15 (ROADMAP item 4's cancellation),
    # so only the gap is asserted, not the unit interval
    @pytest.mark.parametrize("end", [0.0, 1.0])
    @pytest.mark.parametrize("name", ["fig3", "default", "fig6"])
    def test_gap_to_the_end_is_linear_in_the_distance(self, name, end):
        want = with_frame_energy(name, end)
        near, nearer = ([abs(a - b) for a, b in zip(with_frame_energy(name, abs(end - eps)),
                                                    want)] for eps in (1e-12, 1e-15))
        rounding = [4 * math.ulp(1.0)] * 2 + [4 * math.ulp(v) for v in want[2:]]
        for k, (a, b, r) in enumerate(zip(near, nearer, rounding)):
            assert b <= 1.25e-3 * a + r, (k, a, b)


class TestIdenticalRelays:
    # fig6's geometry with M relays at one distance: one primary family for
    # every receiver, and selection odds of the i.i.d. order statistic, 1/M
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_relays_are_interchangeable(self, n):
        scn = scenario_from_conf(relay_ladder_conf(preset("fig6"), 0.1, 0.1, n, 0.0))
        assert scn.links.family == (0,) * (n + 2)
        m = scn.energy_model()
        assert all(law is m.report.relays[0] for law in m.report.relays)
        f = m.frame(scn.t_sense)
        for i in range(n):
            assert f.prr(i) == pytest.approx(1.0 / n, rel=0.0, abs=4 * math.ulp(1.0))
        rows = [(f.prr(i), f.energy(i), f.energy_nonharvesting(i), f.data(i),
                 f.listen_linear(i), f.ecg(i), f.slope(i), f.constraint(i, 100.0),
                 f.multiplier(i, 100.0), f.necessary_condition(i)) for i in range(n)]
        assert rows == [rows[0]] * n


class TestPerfectCsi:
    # at rho = 1 the estimate is the truth, so selection picks the largest
    # true second hop: one quadrature per relay, with no selection terms
    @pytest.mark.parametrize("p_max", ["10 dB", "20 dB"])
    @pytest.mark.parametrize("gamma_th", ["3 dB", "20 dB"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_outage_is_selection_by_the_true_channel(self, n, gamma_th, p_max):
        (pd, p_out, *_), scn = closed_forms("fig4", relay_overrides(RELAYS[:n]) + [
            "csi.rho=1", "traffic.gamma_th=" + gamma_th, "policy.p_max=" + p_max])
        co = transmission.build_trans_coeffs(scn.links, scn.primary, scn.policy, pd)
        want = oracles.perfect_csi_outage(scn.gamma_th / scn.policy.noise_power,
                                          co.snr_means, co.snr_first, co.u_trans)
        assert p_out == pytest.approx(want, rel=1e-10, abs=0.0)


SLACK_FLOOR_CASES = {
    "default": lambda: scenario_from_conf(preset("default")),
    "table1-M2-L2": lambda: scenario_from_conf(relay_ladder_conf(
        ladder_conf(preset("table1"), 1.0, 2, 0.01), 0.5, 0.5, 2, 0.005)),
}


# on default, floors at 0.25, 0.5 and 0.99 of the free data move t* from
# 1.33346e-6 s to 1.30979e-6, 1.32711e-6 and 1.30146e-6 s; table1 M2/L2 at
# 0.99 calls its slack floor active
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: the golden-section search stops at an absolute "
                          "1e-7 s, so a slack floor that shortens its bracket moves the "
                          "optimum it finds")
@pytest.mark.parametrize("case, fraction", [("default", 0.25), ("default", 0.5),
                                            ("default", 0.99), ("table1-M2-L2", 0.99)])
def test_slack_data_floor_leaves_the_optimum(case, fraction):
    scn = SLACK_FLOOR_CASES[case]()
    model = scn.energy_model()
    free = optimize_sensing_time(model, scn.relay, 0.0)
    opt = optimize_sensing_time(model, scn.relay, fraction * free.data)
    assert not opt.constraint_active
    assert opt.t_sense == free.t_sense
    assert opt.energy == free.energy


@pytest.mark.pin
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14: fixed_gain_report leaves out the all-off "
                          "atom but counts the states where only the silent primary is "
                          "on, so a fourth primary at 30 km lifts p_detect to 0.998778")
def test_far_primary_leaves_detection_at_its_l3_value():
    pd = closed_forms("fig3")[0][0]
    pd_far = closed_forms("fig3", ["links.d_pu=0.4, 0.41, 0.42, 30"])[0][0]
    assert pd == pytest.approx(0.990094, abs=1e-6)
    assert pd_far == pytest.approx(pd, abs=1e-6)
