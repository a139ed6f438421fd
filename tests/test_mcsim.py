import contextlib
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from relaysense import cli, mcsim, scenario
from relaysense.mcsim import (
    CHUNK,
    MCEstimate,
    _chunk_rng,
    _held_mean,
    _mean,
    _reduce,
    _selects,
    _thinned,
    mc_clipped_gain,
    mc_detection,
    mc_ecg,
    mc_frame_energy,
    mc_harvest,
    mc_outage,
)
from relaysense.cli import Z_LIMIT
from relaysense.energy_opt import ecg, total_energy
from relaysense.scenario import (apply_overrides, ladder_conf, preset, relay_ladder_conf,
                                 scenario_from_conf)
from relaysense.transmission import build_trans_coeffs, outage_probability

import oracles
from test_sensing import fig3_setup, rel_noise_db, N0
from test_transmission import fig4_setup


def _seeded(sampler, seed, stream):
    """The chunk function fn(ci, n) = sampler(rng, n) on chunk ci's own
    Philox stream of (seed, stream), looked up on the module so that a
    patched `mcsim._chunk_rng` applies."""
    return lambda ci, n: sampler(mcsim._chunk_rng(seed, stream, ci), n)


@pytest.fixture
def rng_keys(monkeypatch):
    """Every (seed, stream, chunk) Philox stream opened, in order."""
    keys = []
    real = mcsim._chunk_rng

    def counting(seed, stream, chunk):
        keys.append((seed, stream, chunk))
        return real(seed, stream, chunk)

    monkeypatch.setattr(mcsim, "_chunk_rng", counting)
    return keys


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
    """One model swept over sensing times on one stream and relay reads its
    hit rate and frame draws from the held slot; any other call draws them
    again, with the same bits as a fresh model."""

    SIMS = {
        "harv": lambda m, i, t, **kw: mc_frame_energy(m, i, t, **kw),
        "noharv": lambda m, i, t, **kw: mc_frame_energy(m, i, t, harvesting=False, **kw),
        "ecg": lambda m, i, t, **kw: mc_ecg(m, i, t, **kw),
    }
    STREAM = {"harv": 13, "noharv": 13, "ecg": 17}
    GRID = (1e-6, 2.5e-6, 0.005, 0.02, 0.095)
    TRIALS = CHUNK + 4_000  # a full chunk and a partial tail chunk

    @staticmethod
    def bits(est):
        return est.mean.hex(), est.stderr.hex()

    def fresh(self, name, t, relay=0, **run):
        model = scenario_from_conf(preset("fig7")).energy_model()
        return self.bits(self.SIMS[name](model, relay, t, **run))

    def test_one_draw_per_trials_and_seed(self, rng_keys):
        run = dict(trials=self.TRIALS, seed=3)
        points = [(name, t) for name in self.SIMS for t in self.GRID]
        np.random.default_rng(0).shuffle(points)
        want = {p: self.fresh(*p, **run) for p in points}
        want_relay1 = {t: self.fresh("harv", t, relay=1, **run) for t in self.GRID}
        # the fresh models above left a frame key held; emptied, the model
        # below opens each of its streams itself
        mcsim.clear_held()

        # in a shuffled order: a call on the last call's stream reads the
        # slot, one on the other stream draws both of its streams again
        m = scenario_from_conf(preset("fig7")).energy_model()
        last = None
        for name, t in points:
            rng_keys.clear()
            assert self.bits(self.SIMS[name](m, 0, t, **run)) == want[name, t], (name, t)
            stream = self.STREAM[name]
            assert sorted(rng_keys) == ([] if stream == last else
                                        [(3, s, ci) for s in (11, stream) for ci in (0, 1)])
            last = stream

        # back to back on one model, relay and key: one draw for the grid
        for name in self.SIMS:
            mcsim.clear_held()
            rng_keys.clear()
            for t in self.GRID:
                assert self.bits(self.SIMS[name](m, 0, t, **run)) == want[name, t], (name, t)
            assert sorted(rng_keys) == [(3, s, ci) for s in (11, self.STREAM[name])
                                        for ci in (0, 1)], name

        # alternating relays on one key: each call draws again, the first
        # two from Philox (the second records the key's tape), the rest by
        # replaying the tape
        mcsim.clear_held()
        rng_keys.clear()
        for t in self.GRID:
            assert self.bits(self.SIMS["harv"](m, 0, t, **run)) == want["harv", t], t
            assert self.bits(self.SIMS["harv"](m, 1, t, **run)) == want_relay1[t], t
        assert sorted(rng_keys) == [(3, s, ci) for s in (11, 13) for ci in (0, 1)
                                    for _ in range(2)]

        # so does each call that alternates the trial count or seed with the
        # held key
        for t in self.GRID:
            for kw in (dict(trials=20_000, seed=3), dict(trials=self.TRIALS, seed=4), run):
                rng_keys.clear()
                self.SIMS["noharv"](m, 0, t, **kw)
                n_chunks = 1 if kw["trials"] == 20_000 else 2
                assert sorted(rng_keys) == [(kw["seed"], s, ci) for s in (11, 13)
                                            for ci in range(n_chunks)], (t, kw)

    def test_filled_by_threads_read_serially(self):
        run = dict(trials=self.TRIALS, seed=5)
        want = {(name, t): self.fresh(name, t, **run)
                for name in self.SIMS for t in (0.02, 0.005)}
        m = scenario_from_conf(preset("fig7")).energy_model()
        for name in self.SIMS:
            # emptied, so three threads draw what the serial calls read
            mcsim.clear_held()
            self.SIMS[name](m, 0, 0.02, workers=3, **run)
            for t in (0.02, 0.005):
                assert self.bits(self.SIMS[name](m, 0, t, workers=1, **run)) == \
                    want[name, t], (name, t)

    def test_concurrent_callers_share_one_slot(self):
        # more callers than cores race on one model, over both frame keys
        run = dict(trials=20_000, seed=6)
        want = {name: self.fresh(name, 0.02, **run) for name in self.SIMS}
        mcsim.clear_held()
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
        # whichever caller committed last, the slot holds its key's state
        key, _, frame = mcsim._held
        assert key[1] in ((11, 13), (11, 17)) and key[2:4] == (20_000, (3, 4))
        assert frame[0] is m and frame[1] == 0

    def test_slot_holds_one_model_until_cleared(self):
        # the slot keeps the last model a frame simulator ran on, and its
        # draws, until a call on another model or clear_held(); with the
        # collector off, each goes as soon as the slot lets go of it, with
        # no reference cycle left for a collection to find
        conf = ladder_conf(preset("fig6"), 0.1, 3)
        models = [scenario_from_conf(conf).energy_model() for _ in range(2)]
        first, second = (weakref.ref(model) for model in models)
        gc.disable()
        try:
            for model in models:
                mc_frame_energy(model, 0, 0.02, 20_000, 3)
            draws = [weakref.ref(x) for x in mcsim._held[2][3][0]]
            del model, models
            assert first() is None and second() is mcsim._held[2][0]
            assert all(ref() is not None for ref in draws)
            mcsim.clear_held()
            assert second() is None
            assert all(ref() is None for ref in draws)
        finally:
            gc.enable()


class TestReducer:
    def test_moments_match_direct_sums(self):
        # per-column sums and cross-products over a partial tail chunk
        def sampler(rng, n):
            x = rng.random(n)
            return x, 2.0 * x + rng.random(n)

        trials = CHUNK + 17
        sums, cross, units = _reduce(_seeded(sampler, 4, 1), trials)
        assert units == [0, 0]
        cols = [np.concatenate(parts) for parts in zip(*(
            sampler(_chunk_rng(4, 1, ci), n) for ci, n in ((0, CHUNK), (1, 17))))]
        assert sums == pytest.approx([c.sum() for c in cols], rel=1e-12)
        for a in range(2):
            for b in range(2):
                assert cross[a][b] == pytest.approx(float(np.dot(cols[a], cols[b])), rel=1e-12)
        assert cross[0][1] == cross[1][0]

    def test_columns_that_square_past_the_float_range(self):
        # the full chunk's first column squares past the float range, the
        # tail chunk's does not: both are summed in one power-of-two unit
        def sampler(rng, n):
            x = rng.random(n)
            return (x * 2.0 ** 600 if n == CHUNK else x), x

        trials = CHUNK + 17
        sums, cross, units = _reduce(_seeded(sampler, 4, 1), trials)
        cols = [np.concatenate(parts) for parts in zip(*(
            sampler(_chunk_rng(4, 1, ci), n) for ci, n in ((0, CHUNK), (1, 17))))]
        assert units == [mcsim._units(cols[0].max()), 0] and units[0] > 0
        scaled = [np.ldexp(cols[0], -units[0]), cols[1]]
        assert sums == pytest.approx([c.sum() for c in scaled], rel=1e-12)
        for a in range(2):
            for b in range(2):
                assert cross[a][b] == pytest.approx(float(np.dot(scaled[a], scaled[b])),
                                                    rel=1e-12)
        mean, se = _mean(_seeded(lambda rng, n: sampler(rng, n)[:1], 4, 1), trials, 1)
        want_se = math.ldexp(scaled[0].std(ddof=1) / math.sqrt(trials), units[0])
        assert mean == pytest.approx(cols[0].mean(), rel=1e-12)
        assert math.isfinite(se) and se == pytest.approx(want_se, rel=1e-9)

    def test_columns_that_square_below_the_float_range(self):
        # samples below 2**-560 square to 0 as they are: summed in units of
        # a negative power of two, the mean keeps the plain sum's bits and
        # the stderr is resolved
        def sampler(rng, n):
            return (rng.random(n) * 2.0 ** -560,)

        trials = CHUNK + 17
        fn = _seeded(sampler, 4, 1)
        parts = [sampler(_chunk_rng(4, 1, ci), n)[0] for ci, n in ((0, CHUNK), (1, 17))]
        col = np.concatenate(parts)
        assert float(np.dot(col, col)) == 0.0
        sums, cross, units = _reduce(fn, trials)
        assert units == [mcsim._units(col.max())] and units[0] < 0
        mean, se = _mean(fn, trials, 1)
        assert mean == (parts[0].sum() + parts[1].sum()) / trials
        want_se = math.ldexp(np.ldexp(col, -units[0]).std(ddof=1) / math.sqrt(trials), units[0])
        assert 0.0 < se and se == pytest.approx(want_se, rel=1e-9)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("share", [0.0, 0.3, 1.0])
    def test_boolean_columns_are_counted(self, share, workers):
        # a 0/1 column's sum and sum of squares are its count: the boolean
        # column reduces to the bits of the same column cast to 0.0/1.0,
        # all-false, mixed and all-true, over a partial last chunk
        def sampler(rng, n):
            return (rng.random(n) < share,)

        trials = 2 * CHUNK + 17
        fn = _seeded(sampler, 6, 1)
        got = _reduce(fn, trials, workers)
        assert got == _reduce(lambda ci, n: (fn(ci, n)[0].astype(float),), trials, workers)
        (count,), _, units = got
        assert units == [0]
        assert {0.0: count == 0.0, 1.0: count == trials}.get(share, 0.0 < count < trials)

    def test_indicator_samplers_hand_over_boolean_columns(self, monkeypatch):
        # detection, outage and the frame simulators' hit rate are counted;
        # the harvest and the frame simulators' energies stay float columns
        dtypes = []
        real = mcsim._reduce

        def recording(fn, trials, workers=1):
            seen = set()
            dtypes.append(seen)

            def cols(ci, n):
                out = fn(ci, n)
                seen.update(c.dtype.name for c in out)
                return out

            return real(cols, trials, workers)

        monkeypatch.setattr(mcsim, "_reduce", recording)
        scn = scenario_from_conf(preset("fig7"))
        links, primary, policy = scn.links, scn.primary, scn.policy
        model = scn.energy_model()
        runs = {
            "mc_detection": (lambda: mc_detection(links, primary, policy, policy.threshold,
                                                  scn.n_samples, 3000, 1), ["bool"]),
            "mc_outage": (lambda: mc_outage(links, primary, policy, scn.gamma_th, 0.9,
                                            scn.rho, 3000, 1), ["bool"]),
            "mc_harvest": (lambda: mc_harvest(links, primary, policy, 0, 0.9, 3000, 1),
                           ["float64"]),
            "mc_frame_energy": (lambda: mc_frame_energy(model, 0, 0.01, 3000, 1),
                                ["bool", "float64"]),
            "mc_ecg": (lambda: mc_ecg(model, 0, 0.01, 3000, 2), ["bool", "float64"]),
        }
        for name, (run, want) in runs.items():
            dtypes.clear()
            run()
            assert [sorted(seen) for seen in dtypes] == [[w] for w in want], name

    def test_units_scale_both_ways(self):
        E = mcsim._UNSCALED_EXP
        assert mcsim._units(0.0) == 0
        for x in (1.0, 2.0 ** -E, 2.0 ** E * (1 - 2 ** -53), 1e300, 1e-300, 5e-324):
            k = mcsim._units(x)
            assert 2.0 ** -E <= math.ldexp(x, -k) < 2.0 ** E, x
            assert k == 0 or not 2.0 ** -E <= x < 2.0 ** E, x

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


    def test_stderr_of_a_detection_term_whose_square_underflows(self):
        # at 0.1 ms on the default preset every frame detects, the samples
        # are equal, and the stderr is the detection estimate's term alone,
        # about 1e-183, whose square underflows unless scaled
        scn = scenario_from_conf(preset("default"))
        est = mc_frame_energy(scn.energy_model(), scn.relay, 1e-4, 65536, scn.seed)
        assert 1e-190 < est.stderr < 1e-170


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
    # mc_outage draws each relay's (estimate, truth) exponential pair from
    # complex Gaussians with est = rho*h + sqrt(1-rho^2)*w; its outage
    # reads the pairs' law through the closed form. 25 dB puts the outage
    # near 0.1, where one relay, blind and best selection differ
    GAMMA = rel_noise_db(25.0)

    def closed(self, n_relays, rho):
        return outage_probability(self.GAMMA, *fig4_setup(n_relays), 0.95, rho)

    def simulated(self, n_relays, rho, seed):
        return mc_outage(*fig4_setup(n_relays), self.GAMMA, 0.95, rho,
                         trials=400_000, seed=seed)

    def test_marginals_and_correlation(self):
        # one relay: the truth's exponential marginal alone; more relays:
        # selection on the estimate reads its rho^2 correlation with the truth
        for n_relays in (1, 2, 4):
            got = self.simulated(n_relays, 0.7, 31)
            assert abs(got.z_score(self.closed(n_relays, 0.7))) <= Z_LIMIT, n_relays

    def test_independent_at_zero(self):
        # a blind selection among identical relays is no better than one relay
        lone = self.closed(1, 0.0)
        for n_relays in (2, 4):
            assert self.closed(n_relays, 0.0) == pytest.approx(lone, rel=1e-12)
            assert abs(self.simulated(n_relays, 0.0, 32).z_score(lone)) <= Z_LIMIT, n_relays

    def test_locked_at_one(self):
        # the estimate is the truth: selection reaches the best relay's
        # outage, well clear of what rho = 0.9 leaves
        for n_relays in (2, 4):
            got = self.simulated(n_relays, 1.0, 33)
            assert abs(got.z_score(self.closed(n_relays, 1.0))) <= Z_LIMIT, n_relays
            assert got.z_score(self.closed(n_relays, 0.9)) < -2.0 * Z_LIMIT, n_relays


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


class TestEcgWithoutDetection:
    def test_raises_no_detection_error(self):
        # at 175 dB the closed form is finite but 2000 draws detect nothing
        conf = apply_overrides(preset("fig8"), ["policy.threshold=175dB"])
        scn = scenario_from_conf(conf)
        with pytest.raises(mcsim.NoDetectionError):
            mc_ecg(scn.energy_model(), scn.relay, 0.005, trials=2000, seed=scn.seed)
        assert issubclass(mcsim.NoDetectionError, ZeroDivisionError)


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


def _mask_kernel(rng, n, gains, duty, weights=None):
    """`_thinned` as it was before masked fades: the boolean on-mask and the
    fades drawn apart, and the mask applied after the gain."""
    L = len(gains)
    on = rng.random((n, L)) < duty
    fade = rng.exponential(1.0, (n, L))
    if L >= 8:
        fade *= gains
        fade *= on
        if weights is not None:
            fade *= weights
        return np.sum(fade, axis=1)
    total = 0.0
    for l in range(L):
        col = fade[:, l] * gains[l]
        col *= on[:, l].copy()
        if weights is not None:
            col *= weights[l]
        total += col
    return total


class TestKernelBits:
    """The per-chunk kernels work column by column in the order numpy's
    array forms would, so they give the array forms' bits."""

    @pytest.mark.parametrize("n_pu", range(1, 13))
    def test_masked_fades_equal_the_mask_kernel(self, n_pu):
        # masking the fade before its gain gives the bits of masking after
        # it, from the tiniest to the largest gains a LinkSet admits
        rng = np.random.default_rng(100 + n_pu)
        n = 4096
        for gains in (rng.permutation(np.logspace(-12, 12, n_pu)),
                      np.exp(rng.uniform(-300.0, 300.0, n_pu)),
                      np.exp(rng.uniform(-170.0, 170.0, n_pu))):
            for duty in (0.0, 0.5, 1.0):
                for weights in (None, gains):
                    got = _thinned(_chunk_rng(n_pu, 2, 0), n, gains, duty, weights)
                    want = _mask_kernel(_chunk_rng(n_pu, 2, 0), n, gains, duty, weights)
                    assert got.tobytes() == want.tobytes(), (gains, duty, weights)

    @pytest.mark.parametrize("n_pu", range(1, 21))
    def test_thinned_equals_row_sum(self, n_pu):
        # gains spread over 24 decades in shuffled order, so any other
        # summation order rounds differently
        gains = np.random.default_rng(n_pu).permutation(np.logspace(-12, 12, n_pu))
        n = 4096
        for duty in (0.0, 0.3, 1.0):
            for weights in (None, gains, gains[::-1].copy()):
                got = _thinned(_chunk_rng(n_pu, 2, 0), n, gains, duty, weights)
                rng = _chunk_rng(n_pu, 2, 0)
                on = rng.random((n, n_pu)) < duty
                x = on * (rng.exponential(1.0, (n, n_pu)) * gains)
                want = np.sum(x if weights is None else x * weights, axis=1)
                assert got.tobytes() == want.tobytes(), (duty, weights)

    @pytest.mark.parametrize("n_relays", range(1, 7))
    def test_selection_equals_argmax(self, n_relays):
        rng = np.random.default_rng(n_relays)
        n = 4000
        est = rng.exponential(1.0, (n, n_relays))
        # exact ties: half the rows repeat column 0 everywhere, a quarter
        # repeat the last column in the first
        tied = est.copy()
        tied[::2] = tied[::2, :1]
        tied[1::4, 0] = tied[1::4, -1]
        mask = rng.random(n) < 0.7
        for m in (rng.uniform(0.5, 2.0, n_relays), np.ones(n_relays)):
            for e in (est, tied):
                for i in range(n_relays):
                    want = np.argmax(e * m, axis=1) == i
                    assert np.array_equal(_selects(e, m, i, np.ones(n, bool)), want), i
                    assert np.array_equal(_selects(e, m, i, mask.copy()), mask & want), i

    @pytest.mark.parametrize("n_relays", range(1, 6))
    def test_outage_equals_array_form(self, n_relays, monkeypatch):
        # fig4_setup's relays are identical, so at rho = 0 (estimate = w)
        # repeating w's first column in every other row ties the estimates
        # of relays whose truths differ, and only the tie rule picks one
        links, primary, policy = fig4_setup(n_relays)
        gamma = rel_noise_db(25.0)
        coeffs = build_trans_coeffs(links, primary, policy, 0.95)
        m = np.asarray(coeffs.snr_means, dtype=float)
        a = np.asarray(coeffs.snr_first, dtype=float)
        u = np.asarray(coeffs.u_trans, dtype=float)
        x = gamma / policy.noise_power
        real = mcsim._chunk_rng
        monkeypatch.setattr(mcsim, "_chunk_rng", lambda *key: _TiedNoise(real(*key)))
        for rho in (0.0, 0.9):
            mix = math.sqrt(max(1.0 - rho * rho, 0.0))

            def array_form(rng, n):
                hr, hi, wr, wi = (rng.standard_normal((n, n_relays)) for _ in range(4))
                er = rho * hr + mix * wr
                ei = rho * hi + mix * wi
                true = 0.5 * (hr * hr + hi * hi) * m
                est = 0.5 * (er * er + ei * ei) * m
                sel = np.argmax(est, axis=1)
                second = true[np.arange(n), sel]
                first = rng.exponential(1.0, n) * a[sel]
                e2e = first * second / (second + u[sel])
                return ((e2e <= x).astype(float),)

            want = _mean(_seeded(array_form, 8, 3), 20_000, 1)
            mcsim.clear_held()
            got = mc_outage(links, primary, policy, gamma, 0.95, rho, 20_000, 8)
            assert (got.mean.hex(), got.stderr.hex()) == tuple(v.hex() for v in want), rho

    # (m, a, u, x) per case, the first k entries of each; at "float-limit"
    # est * m, true * m, e * a and e * a * t overflow to inf, and inf / inf
    # makes trials whose SNR is nan
    OUTAGE_MEANS = {
        "equal": ([2.0] * 6, [3.0] * 6, [0.5] * 6, 4.0),
        "distinct": ([1.0, 3.0, 0.5, 2.0, 1.5, 0.75], [2.0, 1.0, 4.0, 3.0, 1.5, 2.5],
                     [0.5, 2.0, 1.0, 0.25, 1.5, 0.75], 3.0),
        "float-limit": ([4e307, 4e307, 2e307, 4e307, 3e307, 4e307],
                        [1.0, 0.5, 2.0, 1.0, 1.5, 0.5],
                        [1e307, 2e307, 1e307, 5e306, 2e307, 1e307], 1.0),
    }

    @pytest.mark.parametrize("means", sorted(OUTAGE_MEANS))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_outage_selection_equals_the_select_kernel(self, k, means):
        # estimates on a grid of four values tie exactly in many trials, and
        # only the tie rule picks the relay
        rng = np.random.default_rng(30 + k)
        n = 4096
        est = rng.integers(0, 4, (n, k)) * 1.5
        true = rng.standard_exponential((n, k))
        e = rng.standard_exponential(n)
        m, a, u, x = self.OUTAGE_MEANS[means]
        m, a, u = m[:k], a[:k], u[:k]
        # an overflow warns, as it did in the select kernel
        with (pytest.warns(RuntimeWarning) if means == "float-limit"
              else contextlib.nullcontext()):
            got = mcsim._outage_hits(true, est, e, m, a, u, x)
        with np.errstate(over="ignore", invalid="ignore"):
            want = oracles.select_outage_hits(true, est, e, m, a, u, x)
            scaled = est * np.asarray(m)
        assert got.dtype == bool and np.array_equal(got, want)
        assert 0 < want.sum() < n
        top = scaled == scaled.max(axis=1, keepdims=True)
        assert k == 1 or (top.sum(axis=1) > 1).any()
        assert (means == "float-limit") == bool(np.isinf(scaled).any())

    @pytest.mark.parametrize("rho", [0.5, 0.9, 1.0])
    def test_outage_at_the_float_limit_equals_the_select_kernel(self, rho, monkeypatch):
        # fig4 at 3036 dB, the largest whole-dB p_max that the float-range
        # check of each mean alone admits. scenario_from_conf now rejects it
        # (first-hop times second-hop SNR overflows), so the check is off
        # here; mc_outage itself still takes such a scenario. Each estimate
        # mean is about 4e307, so est * m overflows to inf on about 1% of the
        # draws. At gamma_th = inf a trial is in outage unless its SNR is
        # nan, which it is where the selected truth overflows too.
        # (e * a) * t overflows before the division, so the estimate is not
        # the outage probability here; only its bits are held to the select
        # kernel's, which an arithmetic select's nan would change
        conf = apply_overrides(preset("fig4"), ["policy.p_max=3036 dB", "csi.rho=%g" % rho])
        with pytest.raises(scenario.ConfigError, match="^policy.p_max must "):
            scenario_from_conf(conf)
        with monkeypatch.context() as patch:
            patch.setattr(scenario, "_check_snr_range", lambda *args: None)
            scn = scenario_from_conf(conf)
        m = build_trans_coeffs(scn.links, scn.primary, scn.policy, 1.0).snr_means
        assert all(math.isinf(5.0 * float(v)) for v in m)

        def run():
            mcsim.clear_held()
            est = mc_outage(scn.links, scn.primary, scn.policy, math.inf, 1.0, rho,
                            1 << 15, scn.seed)
            return est.mean.hex(), est.stderr.hex()

        with pytest.warns(RuntimeWarning):
            got = run()

        def oracle(*args):
            with np.errstate(over="ignore", invalid="ignore"):
                return oracles.select_outage_hits(*args)

        monkeypatch.setattr(mcsim, "_outage_hits", oracle)
        assert got == run()


class _TiedNoise:
    """Generator stand-in whose third and fourth normal draws (mc_outage's
    w, drawn inside `mcsim._selection_powers`) repeat their first column in
    every other row."""

    def __init__(self, rng):
        self._rng, self._normals = rng, 0

    def standard_normal(self, size, out=None):
        x = self._rng.standard_normal(size, out=out)
        self._normals += 1
        if self._normals in (3, 4):
            x[::2] = x[::2, :1]
        return x

    def exponential(self, scale, size):
        return self._rng.exponential(scale, size)

    def standard_exponential(self, size):
        return self._rng.standard_exponential(size)


class TestHeldSlot:
    """Consecutive calls with one key, (seed, stream, trials, draw shape,
    duty or rho), draw once and then replay the recorded draws, bit for bit.
    A key records on its first call when its whole tape fits
    `mcsim.HELD_FIRST_BYTES`, else on its second consecutive call; 0 gives
    the second-call rule to every key."""

    TRIALS = CHUNK + 4_000  # a full chunk and a partial tail chunk
    # 0 makes each key wait for its second call; at TRIALS the stock budget
    # lets fig7's harvest and clipped-gain tapes record on the first call and
    # not the others; 1 << 40 lets every key record on its first
    BUDGETS = (0, mcsim.HELD_FIRST_BYTES, 1 << 40)

    @staticmethod
    def bits(est):
        return est.mean.hex(), est.stderr.hex()

    @staticmethod
    def samplers(trials=TRIALS, seed=3):
        """stream -> fn(workers) for each sampler that goes through the slot."""
        scn = scenario_from_conf(preset("fig7"))
        links, primary, policy = scn.links, scn.primary, scn.policy
        return {
            0: lambda w: mc_detection(links, primary, policy, policy.threshold, 1,
                                      trials, seed, workers=w),
            3: lambda w: mc_outage(links, primary, policy, scn.gamma_th, 0.95, 0.9,
                                   trials, seed, workers=w),
            5: lambda w: mc_harvest(links, primary, policy, 1, 0.9, trials, seed, workers=w),
            7: lambda w: mc_clipped_gain(links, primary, policy, 1, 5.0, 100.0,
                                         trials, seed, workers=w),
            # a fresh model per call, so it never reads the slot's frame state
            11: lambda w: mc_frame_energy(scn.energy_model(), 0, 0.02, trials, seed,
                                          workers=w),
        }

    @staticmethod
    def per_trial(stream):
        """Bytes per trial of each sampler's tape on fig7 (the module
        docstring's formulas), L primaries and M relays."""
        links = scenario_from_conf(preset("fig7")).links
        L, M = links.n_primary, links.n_relays
        hit = 8 * L * (M + 1) + 8 * M
        return {0: hit, 3: 8 * (2 * M + 1), 5: 8 * L, 7: 8 * L,
                11: hit + 8 * (1 + L + M)}[stream]

    @staticmethod
    def held_bytes():
        return sum(x.nbytes for tape in mcsim._held[1].values() for _, x in tape)

    def fresh_bits(self, run, monkeypatch):
        """The bits of run(w) for w = 1 and 2 drawn afresh, with nothing held
        and nothing recorded."""
        monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", 0)
        fresh = set()
        for w in (1, 2):
            mcsim.clear_held()
            fresh.add(self.bits(run(w)))
        assert len(fresh) == 1
        return fresh

    @pytest.mark.parametrize("stream", [0, 3, 5, 7, 11])
    def test_fresh_recording_and_replaying_calls_agree(self, stream, rng_keys, monkeypatch):
        run = self.samplers()[stream]
        fresh = self.fresh_bits(run, monkeypatch)
        for budget in self.BUDGETS:
            monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", budget)
            first_records = self.TRIALS * self.per_trial(stream) <= budget
            for workers in ((1, 2, 1, 2), (2, 1, 2, 1)):
                mcsim.clear_held()
                for call, w in enumerate(workers):
                    rng_keys.clear()
                    assert {self.bits(run(w))} == fresh, (budget, call, w)
                    mine = sorted(k for k in rng_keys if k[1] == stream)
                    # recorded on the first call, or noted, then recorded;
                    # then replayed without opening a stream
                    drawn = call == 0 or (call == 1 and not first_records)
                    assert mine == ([(3, stream, 0), (3, stream, 1)] if drawn else []), \
                        (budget, call)
                    assert (mcsim._held[1] is None) == (call == 0 and not first_records), \
                        (budget, call)

    @pytest.mark.parametrize("stream", [0, 3, 5, 7, 11])
    def test_budget_decides_the_first_call(self, stream, rng_keys, monkeypatch):
        run = self.samplers()[stream]
        tape = self.TRIALS * self.per_trial(stream)
        for budget, records in ((tape, True), (tape - 1, False)):
            monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", budget)
            mcsim.clear_held()
            run(1)
            key = mcsim._held[0]
            assert key[:3] == (3, stream if stream != 11 else (11, 13), self.TRIALS)
            if not records:
                # over the budget the first call only notes its key
                assert mcsim._held[1] is None
                continue
            # under it the first call records the whole tape, and the next
            # call opens no Philox stream
            assert self.held_bytes() == tape
            rng_keys.clear()
            run(1)
            assert rng_keys == []
            assert mcsim._held[0] == key

    @pytest.mark.parametrize("stream", [0, 3, 5, 7, 11])
    def test_tape_bytes_match_the_formulas(self, stream, monkeypatch):
        monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", 1 << 40)
        self.samplers()[stream](1)
        assert self.held_bytes() == self.TRIALS * self.per_trial(stream)

    def test_alternating_keys_never_record(self, rng_keys, monkeypatch):
        # at 20000 trials both tapes fit the stock budget: each first call
        # records, and the other key's next call drops it again
        run = self.samplers(trials=20_000)
        want = {}
        monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", 0)
        for stream in (0, 5):
            mcsim.clear_held()
            want[stream] = self.bits(run[stream](1))
        for budget in (0, mcsim.HELD_FIRST_BYTES):
            monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", budget)
            mcsim.clear_held()
            for stream in (0, 5) * 3:
                rng_keys.clear()
                assert self.bits(run[stream](1)) == want[stream]
                assert rng_keys == [(3, stream, 0)]
                assert mcsim._held[0][1] == stream
                assert (mcsim._held[1] is None) == (budget == 0), budget

    @pytest.mark.parametrize("first, second", [(5, 0), (11, 17)])
    def test_a_call_that_records_nothing_holds_no_tapes(self, first, second, rng_keys,
                                                        monkeypatch):
        # key A holds its tapes; key B's first call records nothing, so B's
        # second call records from its own Philox streams, never replaying
        # A's tapes, and its third replays B's. 11 and 17 are the two frame
        # simulators on a fresh model per call, whose tapes have one shape
        scn = scenario_from_conf(preset("fig7"))
        runs = self.samplers()
        runs[17] = lambda w: mc_ecg(scn.energy_model(), 0, 0.02, self.TRIALS, 3, workers=w)
        want = self.fresh_bits(runs[second], monkeypatch)
        mcsim.clear_held()
        runs[first](1)
        runs[first](1)
        assert mcsim._held[1] is not None
        mine = {0: [0], 17: [11, 17]}[second]
        for call in range(3):
            rng_keys.clear()
            assert {self.bits(runs[second](1))} == want, call
            assert sorted({s for _, s, _ in rng_keys}) == (mine if call < 2 else []), call
            assert mcsim._held[0][1] == (second if second != 17 else (11, 17))
            assert (mcsim._held[1] is None) == (call == 0), call

    def test_recorded_draws_are_read_only(self, monkeypatch):
        def doubled(rng, n):
            x = rng.random(n)
            x *= 2.0
            return (x,)

        # a one-off call gets writable draws, a recording call read-only
        # ones, on the second call when the budget is 0 and on the first
        # when the tape fits it
        monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", 0)
        _held_mean(doubled, 1, 99, (), 1000, 1, per_trial=8)
        with pytest.raises(ValueError, match="read-only"):
            _held_mean(doubled, 1, 99, (), 1000, 1, per_trial=8)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="read-only"):
            _held_mean(doubled, 1, 98, (), 1000, 1, per_trial=8)
        run = self.samplers(trials=20_000)[5]
        run(1)
        run(1)
        tapes = mcsim._held[1]
        draws = [x for tape in tapes.values() for _, x in tape]
        assert [method for method, _ in tapes[0]] == ["masked_fade"]
        assert draws and not any(x.flags.writeable for x in draws)
        with pytest.raises(ValueError, match="read-only"):
            draws[0][0] = 0.0

    def test_new_key_lets_go_of_held_draws_before_drawing(self):
        run = self.samplers(trials=20_000)[5]
        run(1)
        run(1)
        held = [weakref.ref(x) for tape in mcsim._held[1].values() for _, x in tape]
        alive = []

        def sampler(rng, n):
            alive.append(sum(ref() is not None for ref in held))
            return (rng.random(n),)

        _held_mean(sampler, 1, 99, (), 1000, 1, per_trial=8)
        assert held and alive == [0]

    @pytest.mark.parametrize("second", [(0.5, 2), (0.6, 1)])
    def test_new_frame_call_lets_go_of_held_frame_draws_before_drawing(self, second,
                                                                        monkeypatch):
        # fig8's rows: one model per primary count (another key), or another
        # geometry on the same key; the first model's frame draws go before
        # the second draws its own. At budget 0 both calls open their streams
        monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", 0)
        first, second = (scenario_from_conf(ladder_conf(preset("fig8"), d, n_pu))
                         for d, n_pu in ((0.5, 1), second))
        mc_ecg(first.energy_model(), 0, 0.02, 20_000, 3)
        held = [weakref.ref(x) for x in mcsim._held[2][3][0]]
        alive = []
        real = mcsim._chunk_rng

        def counting(seed, stream, chunk):
            alive.append(sum(ref() is not None for ref in held))
            return real(seed, stream, chunk)

        monkeypatch.setattr(mcsim, "_chunk_rng", counting)
        mc_ecg(second.energy_model(), 0, 0.02, 20_000, 3)
        assert len(held) == 3 and alive == [0, 0]

    def test_replay_of_another_draw_raises(self):
        ask = {"draw": lambda rng, n: rng.random(n)}

        def sampler(rng, n):
            return (ask["draw"](rng, n),)

        want = [_held_mean(sampler, 1, 99, (), 1000, 1, per_trial=8) for _ in range(2)]
        assert mcsim._held[1] is not None
        for other in (lambda rng, n: rng.exponential(1.0, n),
                      lambda rng, n: rng.random((n, 1)),
                      lambda rng, n: rng.random(n) + rng.random(n)):
            ask["draw"] = other
            with pytest.raises(RuntimeError, match="replay asked for"):
                _held_mean(sampler, 1, 99, (), 1000, 1, per_trial=8)
        ask["draw"] = lambda rng, n: rng.random(n)
        assert _held_mean(sampler, 1, 99, (), 1000, 1, per_trial=8) == want[0] == want[1]

    def test_concurrent_keys_each_get_fresh_bits(self):
        # more callers than cores: three on one key, one on another, and two
        # frame simulators on fresh models, whose key spans two streams
        callers = (0, 0, 0, 5, 11, 11)
        run = self.samplers(trials=20_000)
        want = {}
        for stream in (0, 5, 11):
            mcsim.clear_held()
            want[stream] = self.bits(run[stream](1))
        mcsim.clear_held()
        got = []

        def calls(stream):
            for _ in range(6):
                got.append((stream, self.bits(run[stream](1))))

        threads = [threading.Thread(target=calls, args=(stream,)) for stream in callers]
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
        assert sorted(got) == sorted((stream, want[stream]) for stream in callers * 6)

    def test_fresh_models_on_one_seed_replay_their_frame_draws(self, rng_keys):
        # fig6's rows: a new geometry, so a new model, per row, on one seed
        scns = [scenario_from_conf(ladder_conf(preset("fig6"), d, 3))
                for d in (0.1, 0.2, 0.3, 0.4)]

        def run(scn):
            return self.bits(mc_frame_energy(scn.energy_model(), scn.relay, scn.t_sense,
                                             self.TRIALS, 3))

        want = []
        for scn in scns:
            mcsim.clear_held()
            want.append(run(scn))
        mcsim.clear_held()
        opened = []
        for scn, bits in zip(scns, want):
            rng_keys.clear()
            assert run(scn) == bits
            opened.append(sorted({stream for _, stream, _ in rng_keys}))
        assert opened == [[11, 13], [11, 13], [], []]
        L, M = scns[0].links.n_primary, scns[0].links.n_relays
        assert mcsim._held[0] == (3, (11, 13), self.TRIALS, (L, M), scns[0].primary.duty)
        # the hit rate's draws, then the uniforms, harvest fades and selection exponentials
        held = sum(x.nbytes for tape in mcsim._held[1].values() for _, x in tape)
        assert held == self.TRIALS * (8 * L * (M + 1) + 8 * M + 8 * (1 + L + M))

    def test_validate_then_energy_records_nothing(self, capsys, monkeypatch):
        # one preset, default (L = M = 2), at a cli-queries pass's trials
        trials = 4 * CHUNK
        argv = ["--trials", str(trials)]
        for budget in (0, mcsim.HELD_FIRST_BYTES):
            monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", budget)
            mcsim.clear_held()
            assert cli.main(argv + ["validate"]) == 0
            # clipped gain runs last, and its tape, 8L bytes a trial, is just
            # as large as the stock budget: recorded on its one call
            assert mcsim._held[0][:3] == (1234, 7, trials)
            if budget == 0:
                assert mcsim._held[1] is None
            else:
                assert self.held_bytes() == trials * 8 * 2 == budget
            assert cli.main(argv + ["energy"]) == 0
            # the frame key's tape does not fit: energy only notes its key
            assert mcsim._held[0][1] == (11, 13) and mcsim._held[1] is None

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig6", "fig8"])
    def test_figure_rows_equal_rows_drawn_afresh(self, name, tmp_path, monkeypatch):
        argv = ["--trials", "4096", "--out"]
        assert cli.main(argv + [str(tmp_path / "held.csv"), "figure", name]) == 0
        # every key's tape fits the budget at 4096 trials, so each records on
        # its first row; fig8's rows share one model per primary count, so
        # its later rows of each read the slot's frame state
        assert mcsim._held[1] is not None
        header, points = cli.FIGURES[name]

        def cleared(conf, no_mc):
            rows = points(conf, no_mc)
            while True:
                mcsim.clear_held()
                row = next(rows, None)
                if row is None:
                    return
                yield row

        # an empty slot and no first-call recording: every row draws afresh
        monkeypatch.setitem(cli.FIGURES, name, (header, cleared))
        monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", 0)
        assert cli.main(argv + [str(tmp_path / "fresh.csv"), "figure", name]) == 0
        held = (tmp_path / "held.csv").read_bytes()
        assert held.count(b"\n") == {"fig3": 46, "fig4": 49, "fig6": 21, "fig8": 39}[name]
        assert held == (tmp_path / "fresh.csv").read_bytes()


class TestHeldMasks:
    """The held slot keeps the activity draws as masked fades, zero where a
    primary is off, so the duty they were compared with is part of the key."""

    TRIALS = CHUNK + 4_000

    @staticmethod
    def samplers(duty, trials=TRIALS, seed=3):
        """stream -> fn() for each sampler that thresholds activity draws."""
        scn = scenario_from_conf(apply_overrides(preset("fig7"), ["primary.duty=%r" % duty]))
        links, primary, policy = scn.links, scn.primary, scn.policy
        return {
            0: lambda: mc_detection(links, primary, policy, policy.threshold, 1, trials, seed),
            5: lambda: mc_harvest(links, primary, policy, 1, 0.9, trials, seed),
            7: lambda: mc_clipped_gain(links, primary, policy, 1, 5.0, 100.0, trials, seed),
            11: lambda: mc_frame_energy(scn.energy_model(), 0, 0.02, trials, seed),
        }

    @pytest.mark.parametrize("stream", [0, 5, 7, 11])
    def test_duty_change_draws_afresh(self, stream, rng_keys, monkeypatch):
        bits = TestHeldSlot.bits
        monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", 0)
        fresh = bits(self.samplers(0.3)[stream]())
        for budget in TestHeldSlot.BUDGETS:
            monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", budget)
            first_records = self.TRIALS * TestHeldSlot.per_trial(stream) <= budget
            mcsim.clear_held()
            run = self.samplers(0.5)[stream]
            run()
            run()
            assert mcsim._held[1] is not None
            rng_keys.clear()
            # same seed, stream, trials and shape: only the duty moved
            assert bits(self.samplers(0.3)[stream]()) == fresh
            assert sorted(k for k in rng_keys if k[1] == stream) == [(3, stream, 0),
                                                                     (3, stream, 1)]
            # the new key records on this first call only if its tape fits
            assert mcsim._held[0][4] == 0.3
            assert (mcsim._held[1] is None) == (not first_records), budget

    def test_tapes_hold_one_masked_fade_per_activity_draw(self):
        scn = scenario_from_conf(preset("fig7"))
        L, M = scn.links.n_primary, scn.links.n_relays
        run = self.samplers(scn.primary.duty)[0]
        run()
        run()
        tapes = mcsim._held[1]
        assert {x.dtype for tape in tapes.values() for _, x in tape} == {np.dtype(float)}
        masked = [x for tape in tapes.values() for method, x in tape if method == "masked_fade"]
        assert masked and {x.shape[1] for x in masked} == {L}
        assert len(masked) == len(tapes) * (M + 1)
        held = sum(x.nbytes for tape in tapes.values() for _, x in tape)
        assert held == self.TRIALS * (8 * L * (M + 1) + 8 * M)


class TestHeldOutage:
    """`mc_outage` records one (2, n, M) array of selection powers per
    chunk, the truths' and the estimates' halved squared magnitudes, which
    rho fixes, so rho is part of its key."""

    TRIALS = CHUNK + 4_000

    @staticmethod
    def run(rho, trials=TRIALS, seed=3):
        scn = scenario_from_conf(preset("fig7"))
        return mc_outage(scn.links, scn.primary, scn.policy, scn.gamma_th, 0.95, rho,
                         trials, seed)

    def test_rho_change_draws_afresh(self, rng_keys, monkeypatch):
        bits = TestHeldSlot.bits
        monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", 0)
        fresh = bits(self.run(0.5))
        for budget in TestHeldSlot.BUDGETS:
            monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", budget)
            mcsim.clear_held()
            self.run(0.9)
            self.run(0.9)
            assert mcsim._held[1] is not None
            rng_keys.clear()
            # same seed, stream, trials and shape: only rho moved
            assert bits(self.run(0.5)) == fresh
            assert sorted(rng_keys) == [(3, 3, 0), (3, 3, 1)]
            assert mcsim._held[0][4] == 0.5
            # by its third call the new key replays its draws
            self.run(0.5)
            rng_keys.clear()
            assert bits(self.run(0.5)) == fresh
            assert rng_keys == []

    def test_tape_holds_the_two_selection_powers(self, monkeypatch):
        monkeypatch.setattr(mcsim, "HELD_FIRST_BYTES", 1 << 40)
        M = scenario_from_conf(preset("fig7")).links.n_relays
        self.run(0.9)
        tapes = mcsim._held[1]
        assert sorted(tapes) == [0, 1]
        for ci, n in ((0, CHUNK), (1, 4_000)):
            assert [(method, x.shape) for method, x in tapes[ci]] == [
                ("selection_powers", (2, n, M)), ("exponential", (n,))]
            assert not any(x.flags.writeable for _, x in tapes[ci])
        assert TestHeldSlot.held_bytes() == self.TRIALS * 8 * (2 * M + 1)


@pytest.mark.pin
class TestPinnedMeans:
    """Every mc_* mean keeps its bits for a fixed seed (float.hex recorded
    before the column-wise kernels). The stderrs are pinned to 1e-9
    relative, as their sums of squares go through np.dot, whose order
    depends on the BLAS build."""

    PINNED = {
        "default": {
            "detection_lo": ("0x1.0000000000000p+0", 0.0),
            "detection_mid": ("0x1.0000000000000p+0", 0.0),
            "detection_hi": ("0x1.0000000000000p+0", 0.0),
            "outage": ("0x1.0000000000000p-15", 2.1579021798310503e-05),
            "harvest": ("0x1.9f24ddfad9b74p-32", 1.8223293364204517e-12),
            "frame_energy": ("0x1.2fca27e5c7455p-9", 4.099068501036507e-13),
            "frame_energy_noharv": ("0x1.2fca28376254ep-9", 6.821262305596818e-13),
            "clipped_gain": ("0x1.96e09af1a7040p-15", 1.6669792328703928e-06),
            "detection_sample": ("0x1.f7cc000000000p-1", 0.000490468122964595),
            "ecg": ("0x1.9b1e93fdcb2c0p+25", 260412.29047076628),
        },
        "fig7": {
            "detection_lo": ("0x1.0000000000000p+0", 0.0),
            "detection_mid": ("0x1.0000000000000p+0", 0.0),
            "detection_hi": ("0x1.0000000000000p+0", 0.0),
            "outage": ("0x0.0p+0", 1.52587890625e-05),
            "harvest": ("0x1.0aecb9ae6c901p+6", 0.2632413450193354),
            "frame_energy": ("-0x1.e972ceb17f484p+0", 0.020893814166519833),
            "frame_energy_noharv": ("0x1.b23ed7d34b194p+1", 1.3969945201862284e-09),
            "clipped_gain": ("0x1.24e6a2e74a132p-53", 7.169351263961035e-18),
            "detection_sample": ("0x1.fffa000000000p-1", 2.6428594634491456e-05),
            "ecg": ("0x1.4c24f06508e93p-5", 0.0001605452891294081),
        },
        "ladder12": {
            "detection_lo": ("0x1.0000000000000p+0", 4.125376235301201e-27),
            "detection_mid": ("0x1.7e8a4e9ea716bp-1", 0.01640718780859343),
            "detection_hi": ("0x1.8f64b00d3b200p-9", 0.0030425051372691813),
            "outage": ("0x1.2e00000000000p-9", 0.00018728843263541876),
            "harvest": ("0x1.f2c6ea2ede156p-43", 4.850455159898523e-16),
            "frame_energy": ("0x1.41210b2272804p-9", 8.836118726866322e-06),
            "frame_energy_noharv": ("0x1.41210b227e982p-9", 8.83611872640715e-06),
            "clipped_gain": ("0x1.05a5410d23e2fp-9", 2.3890778833379974e-05),
            "detection_sample": ("0x1.de00000000000p-8", 0.000332389824259231),
            "ecg": ("0x1.6f443a433d0bap+36", 2523409351.8323693),
        },
    }

    CONFS = {
        "default": lambda: preset("default"),
        "fig7": lambda: preset("fig7"),
        # 12 primaries: the pairwise-summed side of `_thinned`
        "ladder12": lambda: relay_ladder_conf(ladder_conf(preset("fig3"), 0.48, 12),
                                              0.1, 0.1, 2),
    }

    @pytest.mark.parametrize("name", sorted(CONFS))
    def test_means_keep_their_bits(self, name):
        scn = scenario_from_conf(apply_overrides(self.CONFS[name](), ["sim.trials=65536"]))
        got = {check: est for check, _, est in cli._validate_pairs(scn)}
        got["detection_sample"] = mc_detection(scn.links, scn.primary, scn.policy,
                                               scn.policy.threshold, 1, scn.trials, scn.seed)
        got["ecg"] = mc_ecg(scn.energy_model(), scn.relay, scn.t_sense, scn.trials, scn.seed)
        pins = self.PINNED[name]
        assert sorted(got) == sorted(pins)
        for check, (mean_hex, stderr) in pins.items():
            assert got[check].mean.hex() == mean_hex, check
            assert got[check].stderr == pytest.approx(stderr, rel=1e-9, abs=0.0), check
