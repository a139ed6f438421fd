import dataclasses

import numpy as np
import pytest

from relaysense.fading import LinkSet, PrimaryModel
from relaysense.harvest import HarvestReport, avg_harvested_power, harvest_mean_power
from relaysense.mcsim import mc_harvest

from test_sensing import N0, fig3_setup, rel_noise_db


def single_pu_setup(d_pu=0.5, duty=0.5):
    links = LinkSet(d_src_relay=[0.1], d_relay_dst=[0.1], d_pu_src=[d_pu],
                    d_pu_relay=[[d_pu]], d_pu_dst=[d_pu])
    primary = PrimaryModel(tx_power=rel_noise_db(20.0), duty=duty)
    policy = fig3_setup()[2]
    return links, primary, policy


class TestHarvestMeanPower:
    def test_single_source_closed_form(self):
        links, primary, policy = single_pu_setup()
        g = float(links.g_pu_relay[0][0])
        want = policy.eta * primary.tx_power * primary.duty * g * g
        assert harvest_mean_power(links, primary, policy, 0) == pytest.approx(want, rel=1e-14)

    def test_linear_in_efficiency(self):
        links, primary, policy = single_pu_setup()
        lo = harvest_mean_power(links, primary, dataclasses.replace(policy, eta=0.2), 0)
        hi = harvest_mean_power(links, primary, dataclasses.replace(policy, eta=0.4), 0)
        assert hi == pytest.approx(2.0 * lo, rel=1e-14)

    def test_linear_in_primary_power(self):
        links, primary, policy = single_pu_setup()
        lo = harvest_mean_power(links, dataclasses.replace(primary, tx_power=0.01), policy, 0)
        hi = harvest_mean_power(links, dataclasses.replace(primary, tx_power=0.03), policy, 0)
        assert hi == pytest.approx(3.0 * lo, rel=1e-14)

    def test_closer_transmitters_harvest_more(self):
        far = harvest_mean_power(*single_pu_setup(d_pu=0.6), 0)
        near = harvest_mean_power(*single_pu_setup(d_pu=0.3), 0)
        assert near > far

    def test_transmitter_order_irrelevant(self):
        links, primary, policy = fig3_setup()
        rev = LinkSet(d_src_relay=links.d_src_relay, d_relay_dst=links.d_relay_dst,
                      d_pu_src=links.d_pu_src[::-1],
                      d_pu_relay=links.d_pu_relay[::-1],
                      d_pu_dst=links.d_pu_dst[::-1])
        assert harvest_mean_power(rev, primary, policy, 0) == pytest.approx(
            harvest_mean_power(links, primary, policy, 0), rel=1e-14)

    def test_additive_over_transmitters(self):
        links, primary, policy = fig3_setup(n_primary=3)
        total = harvest_mean_power(links, primary, policy, 0)
        parts = 0.0
        for d in links.d_pu_src:
            sub = LinkSet(d_src_relay=[0.1], d_relay_dst=[0.1], d_pu_src=[d],
                          d_pu_relay=[[d]], d_pu_dst=[d])
            parts += harvest_mean_power(sub, primary, policy, 0)
        assert total == pytest.approx(parts, rel=1e-12)


class TestAvgHarvestedPower:
    def test_no_detection_no_usable_power(self):
        links, primary, policy = single_pu_setup()
        rep = avg_harvested_power(links, primary, policy, 0, p_detect=0.0)
        assert rep.usable_power == 0.0
        assert rep.mean_power > 0.0

    def test_full_detection_keeps_everything(self):
        links, primary, policy = single_pu_setup()
        rep = avg_harvested_power(links, primary, policy, 0, p_detect=1.0)
        assert rep.usable_power == rep.mean_power

    def test_rejects_bad_probability(self):
        links, primary, policy = single_pu_setup()
        with pytest.raises(ValueError):
            avg_harvested_power(links, primary, policy, 0, p_detect=1.5)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            HarvestReport(mean_power=1.0, usable_power=2.0)
        with pytest.raises(ValueError):
            HarvestReport(mean_power=-1.0, usable_power=0.0)

    def test_against_simulation(self):
        links, primary, policy = fig3_setup()
        for p_detect in (0.4, 1.0):
            want = avg_harvested_power(links, primary, policy, 0, p_detect).usable_power
            got = mc_harvest(links, primary, policy, 0, p_detect,
                             trials=400_000, seed=31)
            assert abs(got.mean - want) < 3.0 * got.stderr
