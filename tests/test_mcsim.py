import math
import sys
import threading

import numpy as np
import pytest

from relaysense import mcsim
from relaysense.mcsim import (
    CHUNK,
    MCEstimate,
    _chunk_rng,
    _pair_exponentials,
    _reduce,
    _seeded,
    mc_clipped_gain,
    mc_detection,
    mc_ecg,
    mc_frame_energy,
    mc_harvest,
    mc_outage,
)
from relaysense.cli import Z_LIMIT
from relaysense.energy_opt import ecg, total_energy
from relaysense.scenario import ladder_conf, preset, scenario_from_conf

from test_sensing import fig3_setup, rel_noise_db, N0
from test_transmission import fig4_setup


class TestMCEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            MCEstimate(mean=0.0, stderr=-1.0, trials=10, seed=1)
        with pytest.raises(ValueError):
            MCEstimate(mean=0.0, stderr=math.inf, trials=10, seed=1)
        with pytest.raises(ValueError):
            MCEstimate(mean=0.0, stderr=0.0, trials=0, seed=1)

    def test_z_score(self):
        est = MCEstimate(mean=1.0, stderr=0.5, trials=10, seed=1)
        assert est.z_score(0.0) == pytest.approx(2.0)
        degenerate = MCEstimate(mean=1.0, stderr=0.0, trials=10, seed=1)
        assert degenerate.z_score(1.0) == 0.0
        assert degenerate.z_score(0.9) == math.inf


class TestDeterminism:
    def test_same_seed_same_bits(self):
        links, primary, policy = fig3_setup()
        a = mc_detection(links, primary, policy, policy.threshold, 200,
                         trials=100_000, seed=99)
        b = mc_detection(links, primary, policy, policy.threshold, 200,
                         trials=100_000, seed=99)
        assert a.mean == b.mean
        assert a.stderr == b.stderr

    def test_different_seed_different_draws(self):
        links, primary, policy = fig3_setup()
        a = mc_detection(links, primary, policy, policy.threshold, 200,
                         trials=100_000, seed=99)
        b = mc_detection(links, primary, policy, policy.threshold, 200,
                         trials=100_000, seed=100)
        assert a.mean != b.mean

    def test_worker_count_is_invisible(self):
        # chunked counter streams: the thread pool must not change a bit
        links, primary, policy = fig4_setup()
        gamma = rel_noise_db(3.0)
        serial = mc_outage(links, primary, policy, gamma, 0.95, 0.9,
                           trials=300_000, seed=7, workers=1)
        pooled = mc_outage(links, primary, policy, gamma, 0.95, 0.9,
                           trials=300_000, seed=7, workers=4)
        assert serial.mean == pooled.mean
        assert serial.stderr == pooled.stderr

    def test_worker_count_is_invisible_for_frame_energy(self):
        # a fresh model per call, so each worker count draws the per-sample
        # hit rate itself instead of reading the first call's cached one
        conf = preset("fig7")
        for sim in (mc_frame_energy, mc_ecg):
            serial, pooled = (sim(scenario_from_conf(conf).energy_model(), 0, 0.02,
                                  trials=100_000, seed=3, workers=w) for w in (1, 3))
            assert serial.mean == pooled.mean, sim.__name__
            assert serial.stderr == pooled.stderr, sim.__name__

    def test_partial_tail_chunk(self):
        # trials deliberately not a multiple of the chunk size
        links, primary, policy = fig3_setup()
        est = mc_detection(links, primary, policy, policy.threshold, 200,
                           trials=CHUNK + 17, seed=5)
        assert est.trials == CHUNK + 17
        assert 0.0 <= est.mean <= 1.0


class TestHitRateCache:
    # one model swept over sensing times reads each draw from its memo
    SIMS = {
        "harv": lambda m, i, t, **kw: mc_frame_energy(m, i, t, **kw),
        "noharv": lambda m, i, t, **kw: mc_frame_energy(m, i, t, harvesting=False, **kw),
        "ecg": lambda m, i, t, **kw: mc_ecg(m, i, t, **kw),
    }
    GRID = (1e-6, 2.5e-6, 0.005, 0.02, 0.095)
    TRIALS = CHUNK + 4_000  # a full chunk and a partial tail chunk

    @staticmethod
    def bits(est):
        return est.mean.hex(), est.stderr.hex()

    def fresh(self, name, t, relay=0, **run):
        model = scenario_from_conf(preset("fig7")).energy_model()
        return self.bits(self.SIMS[name](model, relay, t, **run))

    @pytest.fixture
    def rng_keys(self, monkeypatch):
        """Every (seed, stream, chunk) Philox stream opened, in order."""
        keys = []
        real = mcsim._chunk_rng

        def counting(seed, stream, chunk):
            keys.append((seed, stream, chunk))
            return real(seed, stream, chunk)

        monkeypatch.setattr(mcsim, "_chunk_rng", counting)
        return keys

    def test_one_draw_per_trials_and_seed(self, rng_keys):
        run = dict(trials=self.TRIALS, seed=3)
        points = [(name, t) for name in self.SIMS for t in self.GRID]
        np.random.default_rng(0).shuffle(points)
        want = {p: self.fresh(*p, **run) for p in points}
        want_relay1 = {t: self.fresh("harv", t, relay=1, **run) for t in self.GRID}
        rng_keys.clear()

        m = scenario_from_conf(preset("fig7")).energy_model()
        for name, t in points:
            assert self.bits(self.SIMS[name](m, 0, t, **run)) == want[name, t], (name, t)
        # harv and noharv share stream 13; each chunk of each stream opens once
        assert sorted(rng_keys) == [(3, s, ci) for s in (11, 13, 17) for ci in (0, 1)]

        # a new relay, trial count or seed draws again; a repeated key does not
        rng_keys.clear()
        for t in self.GRID:
            assert self.bits(self.SIMS["harv"](m, 1, t, **run)) == want_relay1[t]
            self.SIMS["ecg"](m, 0, t, trials=20_000, seed=3)
            self.SIMS["noharv"](m, 0, t, trials=self.TRIALS, seed=4)
            self.SIMS["noharv"](m, 0, t, **run)
        assert sorted(rng_keys) == sorted(
            [(3, 13, 0), (3, 13, 1)]                            # relay 1
            + [(3, 11, 0), (3, 17, 0)]                          # 20000 trials
            + [(4, s, ci) for s in (11, 13) for ci in (0, 1)])  # seed 4

    def test_filled_by_threads_read_serially(self):
        run = dict(trials=self.TRIALS, seed=5)
        m = scenario_from_conf(preset("fig7")).energy_model()
        for name in self.SIMS:
            self.SIMS[name](m, 0, 0.02, workers=3, **run)
        for name in self.SIMS:
            for t in (0.02, 0.005):
                assert self.bits(self.SIMS[name](m, 0, t, workers=1, **run)) == \
                    self.fresh(name, t, **run), (name, t)

    def test_concurrent_callers_share_one_memo(self):
        # more callers than cores race to fill the same keys on one model
        run = dict(trials=20_000, seed=6)
        want = {name: self.fresh(name, 0.02, **run) for name in self.SIMS}
        m = scenario_from_conf(preset("fig7")).energy_model()
        got = []

        def call(name):
            got.append((name, self.bits(self.SIMS[name](m, 0, 0.02, **run))))

        threads = [threading.Thread(target=call, args=(name,))
                   for name in list(self.SIMS) * 3]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert sorted(got) == sorted((name, want[name]) for name in list(self.SIMS) * 3)
        assert sorted(m._mc_memo, key=repr) == sorted(
            [(11, None, 20_000, 6), (13, 0, 20_000, 6), (17, 0, 20_000, 6)], key=repr)


class TestReducer:
    def test_moments_match_direct_sums(self):
        # per-column sums and cross-products over a partial tail chunk
        def sampler(rng, n):
            x = rng.random(n)
            return x, 2.0 * x + rng.random(n)

        trials = CHUNK + 17
        sums, cross = _reduce(_seeded(sampler, 4, 1), trials)
        cols = [np.concatenate(parts) for parts in zip(*(
            sampler(_chunk_rng(4, 1, ci), n) for ci, n in ((0, CHUNK), (1, 17))))]
        assert sums == pytest.approx([c.sum() for c in cols], rel=1e-12)
        for a in range(2):
            for b in range(2):
                assert cross[a][b] == pytest.approx(float(np.dot(cols[a], cols[b])), rel=1e-12)
        assert cross[0][1] == cross[1][0]

    def test_rejects_single_trial(self):
        with pytest.raises(ValueError):
            _reduce(_seeded(lambda rng, n: (rng.random(n),), 1, 0), 1)


class TestStderrScaling:
    def test_quadrupling_trials_halves_stderr(self):
        links, primary, policy = fig3_setup()
        lam = 2.0 * policy.threshold
        small = mc_detection(links, primary, policy, lam, 200,
                             trials=100_000, seed=11)
        big = mc_detection(links, primary, policy, lam, 200,
                           trials=400_000, seed=11)
        assert big.stderr == pytest.approx(0.5 * small.stderr, rel=0.2)

    def test_stderr_nonnegative_everywhere(self):
        links, primary, policy = fig3_setup()
        for lam in (0.0, policy.threshold, 100.0 * policy.threshold):
            est = mc_detection(links, primary, policy, lam, 200,
                               trials=50_000, seed=2)
            assert est.stderr >= 0.0
            assert 0.0 <= est.mean <= 1.0


class TestDegenerateCases:
    def test_zero_threshold_always_detects(self):
        links, primary, policy = fig3_setup()
        est = mc_detection(links, primary, policy, 0.0, 200, trials=50_000, seed=3)
        assert est.mean == 1.0

    def test_hopeless_threshold_never_detects(self):
        links, primary, policy = fig3_setup()
        est = mc_detection(links, primary, policy, 1e12 * N0, 1, trials=50_000, seed=3)
        assert est.mean == 0.0
        # a zero-hit run quotes the one-count scale instead of a zero bar
        assert est.stderr > 0.0


class TestPairedExponentials:
    def test_marginals_and_correlation(self):
        rng = _chunk_rng(123, 1, 0)
        m, rho, n = 2.5, 0.7, 1_000_000
        est, true = _pair_exponentials(rng, n, m * np.ones(1), rho)
        for v in (est, true):
            assert float(np.mean(v)) == pytest.approx(m, rel=0.01)
        corr = float(np.corrcoef(est.ravel(), true.ravel())[0, 1])
        # squared-magnitude pairs correlate as rho^2
        assert corr == pytest.approx(rho * rho, abs=0.005)

    def test_independent_at_zero(self):
        rng = _chunk_rng(123, 1, 0)
        est, true = _pair_exponentials(rng, 500_000, np.ones(1), 0.0)
        corr = float(np.corrcoef(est.ravel(), true.ravel())[0, 1])
        assert abs(corr) < 0.005

    def test_locked_at_one(self):
        rng = _chunk_rng(123, 1, 0)
        est, true = _pair_exponentials(rng, 1000, np.ones(1), 1.0)
        np.testing.assert_allclose(est, true, rtol=1e-10)


class TestEstimatorRanges:
    def test_outage_in_unit_interval(self):
        links, primary, policy = fig4_setup()
        est = mc_outage(links, primary, policy, rel_noise_db(3.0), 0.95, 0.9,
                        trials=100_000, seed=13)
        assert 0.0 <= est.mean <= 1.0

    def test_harvest_positive(self):
        links, primary, policy = fig3_setup()
        est = mc_harvest(links, primary, policy, 0, 0.9, trials=100_000, seed=17)
        assert est.mean > 0.0

    def test_clipped_gain_positive(self):
        links, primary, policy = fig3_setup()
        est = mc_clipped_gain(links, primary, policy, 0, 5.0, 100.0,
                              trials=100_000, seed=19)
        assert est.mean > 0.0

    def test_frame_energy_accounts(self):
        m = scenario_from_conf(preset("fig7")).energy_model()
        harv = mc_frame_energy(m, 0, 0.02, trials=100_000, seed=23, harvesting=True)
        bare = mc_frame_energy(m, 0, 0.02, trials=100_000, seed=23, harvesting=False)
        assert harv.mean < bare.mean


class TestEcgStderr:
    def test_stderr_matches_seed_spread(self):
        # 1 us leaves detection far from saturation (p_detect ~ 0.73), so the
        # quoted error must carry the detection estimate's share: over fixed
        # seeds the spread of the means should match the quoted errors
        scn = scenario_from_conf(ladder_conf(preset("fig8"), 0.5, 1))
        m = scn.energy_model()
        ests = [mc_ecg(m, scn.relay, 1e-6, trials=50_000, seed=s) for s in range(150)]
        means = np.array([e.mean for e in ests])
        ratio = means.std(ddof=1) / np.median([e.stderr for e in ests])
        assert 0.9 <= ratio <= 1.1


class TestEcgAgreement:
    # 2 us leaves detection unsaturated (p_detect ~ 0.93), so both missed and
    # detected frames occur; 5 ms is fig8's first grid point
    @pytest.mark.parametrize("t_sense", [2e-6, 0.005])
    def test_ecg_agrees_with_closed_form(self, t_sense):
        scn = scenario_from_conf(ladder_conf(preset("fig8"), 0.5, 1))
        m = scn.energy_model()
        est = mc_ecg(m, scn.relay, t_sense, trials=200_000, seed=scn.seed)
        assert est.stderr > 0.0
        assert abs(est.z_score(ecg(m, scn.relay, t_sense))) <= Z_LIMIT

    # sensing slots that are not a whole number of 1 us samples: the closed
    # forms raise the per-sample miss to the fractional power t_sense * W
    @pytest.mark.parametrize("t_sense", [1.4e-6, 1.5e-6, 2.5e-6])
    def test_fractional_sample_counts(self, t_sense):
        scn = scenario_from_conf(ladder_conf(preset("fig8"), 0.5, 1))
        m = scn.energy_model()
        est = mc_ecg(m, scn.relay, t_sense, trials=200_000, seed=scn.seed)
        assert abs(est.z_score(ecg(m, scn.relay, t_sense))) <= Z_LIMIT
        est = mc_frame_energy(m, scn.relay, t_sense, trials=200_000, seed=scn.seed)
        assert abs(est.z_score(total_energy(m, scn.relay, t_sense))) <= Z_LIMIT
