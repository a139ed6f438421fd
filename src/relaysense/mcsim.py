"""Monte Carlo cross-checks for every closed-form quantity in the package.

Estimates are built from counter-based Philox streams keyed by
(seed, stream, chunk), with per-chunk partial sums reduced in chunk order.
That makes every estimate bit-identical for a given seed no matter how many
worker threads run the chunks, which the validation harness relies on.
`_map_chunks` is the one chunk loop (and the one place threads start), and
`_reduce` the one moment reduction on top of it, in units of a power of
two (`_units`), so that no square overflows and the largest do not
underflow.

Bit identity covers the order of arithmetic as well as the draws. The
per-chunk kernels work one column (primary or relay) at a time, because
numpy reductions and broadcasts over an axis of 1-4 elements cost more
than the arithmetic, but they keep the array forms' operations: `_thinned`
adds its columns in np.sum(axis=1)'s order, and `_selects`, the one relay
selection of the outage and the frame simulators, reproduces np.argmax's
choice, ties to the first index. No kernel runs np.where, whose branch
mispredicts, on a mask about half true: the outage keeps each relay's
indicator where `_selects` picks it (`_outage_hits`), and indicators stay
boolean for `_reduce` to count. np.where is left on masks that p_detect
near 0 or 1 skews.

Every row of a figure sweep (fig3's distance ladders, fig4's power ladders,
fig6's primary distances) uses the preset's own seed, so consecutive calls
of a sampler draw the same Philox streams and differ only in the geometry
applied after the draws: common random numbers. One held slot, `_held`,
keeps them across such a run. Its key is (seed, stream, trials, draw shape,
duty), the draw shape being (L, M) for `mc_detection` (stream 0), (M,) for
`mc_outage` (3) and (L,) for `mc_harvest` (5) and `mc_clipped_gain` (7),
with L primaries and M relays; outage draws no activity and keys its CSI
correlation rho in the duty's place. A frame simulator (`mc_frame_energy`,
`mc_ecg`) takes the hit sampler's draws and its own frame draws through one
key, (seed, (11, s), trials, (L, M), duty) with s its stream: 13 for
`mc_frame_energy` with and without harvesting, 17 for `mc_ecg`. A key
records every chunk's draws in one tape, read-only (`_Tape`), on its first
call when the whole tape takes at most `HELD_FIRST_BYTES` (4 MiB), so a
sweep replays from its second row. A larger tape is recorded on the key's
second consecutive call: its first only notes the key and gets plain
Philox generators. So a one-off call costs what it did without the slot
and leaves at most the budget held. The tape holds the `random` and
exponential arrays (as standard draws, replayed as scale * e, which is
Generator.exponential(scale) bit for bit), the masked fades of
`_masked_fade` (each fade times its 0-or-1 on-mask, which the key's duty
fixes, in place of the uniforms and fades behind it) and the outage's
`_selection_powers` (each relay's halved squared channel and estimate
magnitudes, which rho fixes, in place of the four normal arrays behind
them). Every later consecutive call with the key replays them and skips the
Philox draws. A new key drops the recorded draws before it draws its own.
They take, per trial, 8L(M+1) + 8M bytes for detection, 8(2M + 1) for
outage, 8L for harvest and clipped gain, and 8L(M+1) + 8M + 8(1 + L + M)
for a frame key (the hit rate's, then the uniform, harvest fades and
selection exponentials). At 1e6 trials that is 56 MB for fig3's
three-primary, one-relay rows, 40 MB for fig4's two-relay outage rows and
216 MB for fig6's three-primary, four-relay rows, each recorded on its
second row. At 2^15 trials fig3's and fig4's tapes fit the budget (1.8 and
1.3 MB), an L = 12, two-relay detection tape (10 MB) does not. The frame
simulators run on one `EnergyModel` across a sensing-time grid, and what
they draw does not depend on the sensing time. So the slot also
holds, with a frame key, the state of that key's last call: its model and
relay, the hit rate, and each chunk's uniforms, harvested power and
standard selection exponentials. A call with the same key, the same model
(`is`) and the same relay reads them and only redoes the comparisons that
move with the sensing time, as a figure's sweep over one model does. Any
other call draws them again, through the key's tapes when they are held,
with the same bits. Of that state only the harvested power is the slot's
own, trials * 8 bytes, when the key's tape is held; otherwise the uniforms
and exponentials are too, trials * (2 + M) * 8 bytes in all: 48 MB at 1e6
trials for `figure fig7`'s 4 relays. A call that draws anew drops it: before
its draws when it takes more than `HELD_FIRST_BYTES`, so that the two
states never add up, else after them, since freeing a small state first
made tsense-sweep's new draws take about four times the minor page faults.
`clear_held()` empties the slot.

The simulators share the analytic layer's power allocations and gain
constants (those are design choices of the network, not outputs being
tested) but draw every random quantity themselves.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .energy_opt import EnergyModel
from .fading import LinkSet, PrimaryModel, _threshold
from .sensing import ReportGain, SecondaryPolicy, build_report_gain
from .transmission import build_trans_coeffs

CHUNK = 1 << 16
# a held-slot key records its draws on its first call when its whole tape
# takes at most this many bytes (module docstring)
HELD_FIRST_BYTES = 4 << 20

_MIX_SEED = 0x9E3779B97F4A7C15
_MIX_STREAM = 0xBF58476D1CE4E5B9
_MASK64 = (1 << 64) - 1
# `_units`: magnitudes in [2**-this, 2**this) are summed and squared as they are
_UNSCALED_EXP = 64
_UNSCALED_SQ = 2.0 ** (2 * _UNSCALED_EXP)


class NoDetectionError(ZeroDivisionError):
    """`mc_ecg` drew no harvesting frame, so its simulated ratio is undefined."""


@dataclass(frozen=True)
class MCEstimate:
    """A simulation estimate: sample mean, its standard error, and the
    run's size and seed for reproducibility."""

    mean: float
    stderr: float
    trials: int
    seed: int

    def __post_init__(self):
        if self.stderr < 0.0 or not math.isfinite(self.stderr):
            raise ValueError("standard error must be finite and non-negative")
        if self.trials < 1:
            raise ValueError("need at least one trial")

    def z_score(self, reference: float) -> float:
        """Standardised distance to a reference value (inf if degenerate).

        The chunked reduction only resolves the mean to a few ulps, so
        differences inside that resolution count as an exact match; this is
        what keeps saturated regimes (constant samples, zero stderr) from
        reading as disagreement."""
        diff = self.mean - reference
        scale = max(abs(self.mean), abs(reference))
        if abs(diff) <= 16.0 * math.ulp(scale):
            return 0.0
        if self.stderr == 0.0:
            return math.inf
        return diff / self.stderr


def _key(seed: int, stream: int, chunk: int) -> int:
    hi = (int(seed) * _MIX_SEED + int(stream) * _MIX_STREAM) & _MASK64
    return (hi << 64) | (int(chunk) & _MASK64)


def _chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(seed, stream, chunk)))


def _map_chunks(fn, trials: int, workers: int = 1):
    """[fn(ci, n) for each chunk ci of n draws] over `trials` draws, in chunk
    order. With workers > 1 the chunks run on a thread pool; each result
    depends on (ci, n) alone, so the worker count changes no bit."""
    trials = int(trials)
    if trials < 2:
        raise ValueError("need at least two trials")
    chunks = [(ci, min(CHUNK, trials - ci * CHUNK))
              for ci in range((trials + CHUNK - 1) // CHUNK)]
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda c: fn(*c), chunks))
    return [fn(ci, n) for ci, n in chunks]


def _units(x: float) -> int:
    """The k nearest 0 with 2**-E <= |x| / 2**k < 2**E, E = _UNSCALED_EXP,
    and 0 for x = 0: huge magnitudes are scaled down and tiny ones up, so
    that their squares stay normal floats. Scaling by 2**-k is exact, so sums
    and squares in units of 2**k round as the plain ones would wherever
    those neither overflow nor leave the normal range."""
    e = math.frexp(x)[1]
    return max(e - _UNSCALED_EXP, 0) + min(e + _UNSCALED_EXP - 1, 0)


def _reduce(fn, trials: int, workers: int = 1):
    """Per-column sums and cross-products of fn(ci, n) -> columns over
    `trials` draws, ([sum_a], [[sum_a*b]], [k_a]) as plain numbers, the
    per-chunk partials added in chunk order. Column a is summed in units of
    2**k_a, `_units` of its largest magnitude. A lone boolean column is
    counted: its sum and sum of squares are its count, in units of 2**0."""

    def moments(ci, n):
        cols = fn(ci, n)
        if len(cols) == 1 and cols[0].dtype == bool:
            count = float(np.count_nonzero(cols[0]))
            return [0], np.array([count]), np.array([[count]])
        cols = [np.asarray(c, dtype=float) for c in cols]
        with np.errstate(over="ignore", invalid="ignore"):
            cross = np.array([[np.dot(x, y) for y in cols] for x in cols])
        # a sum of n squares in [n / _UNSCALED_SQ, _UNSCALED_SQ) proves
        # k = 0 without a scan
        k = [0 if len(c) / _UNSCALED_SQ <= cross[a, a] < _UNSCALED_SQ
             else _units(max(c.max(), -c.min())) for a, c in enumerate(cols)]
        if any(k):
            cols = [np.ldexp(c, -kc) for c, kc in zip(cols, k)]
            cross = np.array([[np.dot(x, y) for y in cols] for x in cols])
        return k, np.array([c.sum() for c in cols]), cross

    partials = _map_chunks(moments, trials, workers)
    units = [max(ks) for ks in zip(*(k for k, _, _ in partials))]
    sums = np.zeros(len(units))
    cross = np.zeros((len(units), len(units)))
    for k, s, c in partials:
        if k != units:
            # a chunk in smaller units joins the common ones, exactly
            shift = np.subtract(k, units)
            s, c = np.ldexp(s, shift), np.ldexp(c, shift[:, None] + shift)
        sums += s
        cross += c
    return sums.tolist(), cross.tolist(), units


def _mean(fn, trials: int, workers: int):
    """Sample mean of a one-column chunk function and its standard error."""
    (total,), ((sumsq,),), (k,) = _reduce(fn, trials, workers)
    n = int(trials)
    mean = total / n
    var = max(sumsq - n * mean * mean, 0.0) / (n - 1)
    return math.ldexp(mean, k), math.ldexp(math.sqrt(var / n), k)


# --- the held slot: one sweep's draws, replayed --------------------------

def _masked_fade(rng, p, size):
    """rng.exponential(1.0, size) where rng.random(size) < p and 0 elsewhere,
    the uniforms drawn first: the faded powers of primaries that are on with
    probability p. The held slot's stand-ins record and replay the product,
    which the key's duty fixes, instead of the uniforms and fades behind it."""
    if isinstance(rng, _Tape):
        return rng.masked_fade(p, size)
    on = rng.random(size) < p
    fade = rng.standard_exponential(size)
    fade *= on
    return fade


def _selection_powers(rng, rho, size):
    """The (2, n, M) array of halved squared magnitudes, for size (n, M),
    of each relay's channel h and of its outdated estimate e = rho*h +
    sqrt(1-rho^2)*w: 0.5*(hr^2 + hi^2) and 0.5*(er^2 + ei^2), from the
    normals hr, hi, wr, wi drawn in that order. Built in place, two scratch
    arrays beside the result, with each element's operations in the order
    0.5 * (er * er + ei * ei) gives them. The held slot's stand-ins record
    and replay the pair, which rho fixes, instead of the four normals."""
    if isinstance(rng, _Tape):
        return rng.selection_powers(rho, size)
    mix = math.sqrt(max(1.0 - rho * rho, 0.0))
    powers = np.empty((2,) + tuple(size))
    true, est = powers
    hr = rng.standard_normal(size)
    hi = rng.standard_normal(size)
    np.multiply(hr, rho, out=est)
    np.multiply(hr, hr, out=true)
    w = rng.standard_normal(size, out=hr)
    w *= mix
    est += w                           # er
    np.multiply(hi, hi, out=w)
    true += w
    true *= 0.5
    hi *= rho
    rng.standard_normal(size, out=w)
    w *= mix
    hi += w                            # ei
    est *= est
    hi *= hi
    est += hi
    est *= 0.5
    return powers


class _Tape:
    """Generator stand-in over one chunk's tape, a list of (method, array).
    Given an rng, it passes the rng's draws through and appends each, made
    read-only, to the tape; given none, it hands the tape's draws back in
    order, and a request for another method or shape raises. Exponentials
    are kept as standard draws: Generator.exponential(scale, size) is scale
    times the standard draw, bit for bit."""

    def __init__(self, tape, rng=None):
        self._tape, self._rng = tape, rng
        self._replay = iter(tape)

    def _draw(self, method, size, draw):
        if self._rng is not None:
            x = draw(self._rng)
            x.flags.writeable = False
            self._tape.append((method, x))
            return x
        shape = (size,) if np.isscalar(size) else tuple(size)
        kept, x = next(self._replay, (None, None))
        if kept != method or x.shape != shape:
            raise RuntimeError("replay asked for %s%s, but the tape holds %s"
                               % (method, shape, "nothing" if x is None
                                  else "%s%s" % (kept, x.shape)))
        return x

    def random(self, size):
        return self._draw("random", size, lambda rng: rng.random(size))

    def masked_fade(self, p, size):
        return self._draw("masked_fade", size, lambda rng: _masked_fade(rng, p, size))

    def selection_powers(self, rho, size):
        return self._draw("selection_powers", (2,) + tuple(size),
                          lambda rng: _selection_powers(rng, rho, size))

    def standard_exponential(self, size):
        return self._draw("exponential", size, lambda rng: rng.standard_exponential(size))

    def exponential(self, scale, size):
        return scale * self.standard_exponential(size)


# (key, {chunk: tape} or None, frame), read and replaced as one tuple, so a
# caller never sees one key's tapes or frame under another's; frame is a
# frame simulator's state (`_frame_draws`), else None. Callers on other
# threads may replace it between a read and a write; that can cost a
# replay, never a bit.
_held = (None, None, None)


def clear_held():
    """Empty the held slot: the next call of each sampler draws afresh."""
    global _held
    _held = (None, None, None)


def _held_chunks(seed: int, stream, trials: int, shape: tuple, duty, per_trial: int):
    """One call's way through the held slot (see the module docstring):
    (draws, commit). draws(ci) gives chunk ci's generators, one per stream
    of (seed, s) for s in `stream` (an int, or a tuple of them), plain or
    `_Tape`s; commit(frame=None) ends the call once every chunk has been
    drawn, and holds this call's tapes, if any, with `frame`.
    `shape` must fix every draw asked for at a given chunk size, and `duty`
    every parameter a recorded draw depends on (the duty handed to
    `_masked_fade`, rho to `_selection_powers`). `per_trial` is the tape's
    size in bytes per trial: a key records on its first call when the whole
    tape fits `HELD_FIRST_BYTES`, else on its second consecutive call. The
    chunk function must ask for its draws in one fixed order, as a chunk's
    streams share one tape."""
    global _held
    key = (int(seed), stream, int(trials), shape, duty)
    streams = stream if isinstance(stream, tuple) else (stream,)
    held_key, tapes, _ = _held
    if held_key != key:
        tapes = None
    # let go of the held frame, and of another key's tapes, before drawing
    _held = (key, tapes, None)
    if tapes is not None:
        def draws(ci):
            return [_Tape(tapes[ci])] * len(streams)
    elif held_key == key or int(trials) * per_trial <= HELD_FIRST_BYTES:
        tapes = {}

        def draws(ci):
            tapes[ci] = tape = []
            return [_Tape(tape, _chunk_rng(seed, s, ci)) for s in streams]
    else:
        def draws(ci):
            return [_chunk_rng(seed, s, ci) for s in streams]

    def commit(frame=None):
        global _held
        _held = (key, tapes, frame)

    return draws, commit


def _held_mean(sampler, seed: int, stream: int, shape: tuple, trials: int, workers: int,
               duty=None, *, per_trial: int):
    """`_mean` of sampler(rng, n) on the Philox streams of (seed, stream),
    through the held slot (`_held_chunks`), whose tape takes `per_trial`
    bytes per trial."""
    draws, commit = _held_chunks(seed, stream, trials, shape, duty, per_trial)
    out = _mean(lambda ci, n: sampler(draws(ci)[0], n), trials, workers)
    commit()
    return out


def _hit_tape_bytes(n_primary: int, n_relays: int) -> int:
    """Bytes per trial of the hit sampler's tape: L masked fades for the
    destination and for each relay, and each relay's second-hop exponential."""
    return 8 * (n_primary * (n_relays + 1) + n_relays)


def _thinned(rng, n, gains, duty, weights=None):
    """n draws of the total received power over L primaries: each primary's
    exponential fade on its mean gain, zeroed when it is off, and multiplied
    by weights[l] if given. Returns the (n,) vector of per-draw totals.

    It draws the (n, L) masked fades of `_masked_fade`, and adds the columns
    in the order np.sum(axis=1) uses on the C-ordered (n, L) product, so the
    totals equal that sum bit for bit: left to right below 8 terms, numpy's
    own pairwise sum (8 interleaved accumulators) at 8 or more, where
    per-column code measured slower than np.sum itself. Masking before the
    gain keeps every bit, as the mask is 0 or 1 and each fade times its
    gain is finite.
    """
    L = len(gains)
    fade = _masked_fade(rng, duty, (n, L))
    if L >= 8:
        # in place on fresh draws; a held tape is read-only
        x = np.multiply(fade, gains, out=fade if fade.flags.writeable else None)
        if weights is not None:
            x *= weights
        return np.sum(x, axis=1)
    for l in range(L):
        col = fade[:, l] * gains[l]
        if weights is not None:
            col *= weights[l]
        # the first column's fresh product starts the sum, in place
        total = np.add(total, col, out=total) if l else col
    return total


# --- detection ------------------------------------------------------------

def _sample_exceed_sampler(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
                           lam_norm: float, report: ReportGain):
    """Per-sample detector hits; relay i forwards with the report's gain
    normaliser u_report[i] over a report hop of mean SNR snr_report[i]."""
    mix_scale = primary.tx_power / policy.noise_power
    g_dst, g_rel = links.g_pu_dst, links.g_pu_relay
    duty, u, b = primary.duty, report.u_report, report.snr_report

    def sampler(rng, n):
        level = _thinned(rng, n, g_dst, duty)
        exceed = np.multiply(level, mix_scale, out=level) > lam_norm
        for i in range(links.n_relays):
            e2e = _thinned(rng, n, g_rel[i], duty)
            e2e *= mix_scale
            second = rng.exponential(b[i], n)
            e2e *= second                  # first * second / (second + u), in place
            e2e /= np.add(second, u[i], out=second)
            exceed |= e2e > lam_norm
        return (exceed,)

    return sampler


def mc_detection(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
                 lam: float, n_samples: float, trials: int, seed: int,
                 workers: int = 1) -> MCEstimate:
    """Simulated frame detection probability.

    Draws single observation rounds (every path sees fresh activity and
    fading, as the closed form assumes) and raises the per-sample hit rate
    to the frame level through the OR rule, with the matching delta-method
    standard error.
    """
    if not 0.0 < n_samples < math.inf:
        raise ValueError("need a positive finite sample count, got %g" % n_samples)
    sampler = _sample_exceed_sampler(links, primary, policy,
                                     _threshold(lam / policy.noise_power),
                                     build_report_gain(links, primary, policy))
    L, M = links.n_primary, links.n_relays
    p_hit, se = _held_mean(sampler, seed, 0, (L, M), trials, workers, primary.duty,
                           per_trial=_hit_tape_bytes(L, M))
    if p_hit == 0.0:
        # no hits at all: quote the one-count scale, not a zero error bar
        se = 1.0 / trials
    mean, se_frame = _frame_lift(p_hit, se, n_samples)
    return MCEstimate(mean=mean, stderr=se_frame, trials=int(trials), seed=int(seed))


def _frame_lift(p_hit: float, se: float, n_samples: float):
    """Frame detection probability under the OR rule over n_samples
    single-sample hit rates, with the delta-method standard error."""
    miss = 1.0 - min(max(p_hit, 0.0), 1.0)
    p_det = 1.0 - miss**n_samples
    se_det = n_samples * miss ** (n_samples - 1.0) * se if miss > 0.0 else 0.0
    return p_det, se_det


# --- transmission ---------------------------------------------------------

def _selects(est, m, i, mask):
    """mask & (np.argmax(est * m, axis=1) == i) for est of shape (n, M), by
    M - 1 column comparisons in place on the boolean mask. Ties go to the
    first index, as in argmax: relay i wins when its column is strictly
    above every earlier one and at least equal to every later one."""
    mine = est[:, i] * m[i]
    for j in range(len(m)):
        if j != i:
            other = est[:, j] * m[j]
            mask &= mine > other if j < i else mine >= other
    return mask


def _outage_hits(true, est, e, m, a, u, x):
    """Per-trial outage indicators: relay j is in outage when e * a[j] * t /
    (t + u[j]) <= x, t = true[:, j] * m[j], kept where `_selects` picks j,
    and the kept ones ORed. Branch-free (module docstring), with the inf and
    nan that one trial at a time would give."""
    for j in range(len(m)):
        t = true[:, j] * m[j]
        e2e = e * a[j]
        e2e *= t
        t += u[j]
        e2e /= t
        mine = _selects(est, m, j, e2e <= x)
        hits = np.logical_or(hits, mine, out=hits) if j else mine
    return hits


def mc_outage(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
              gamma_th: float, p_detect: float, rho: float, trials: int,
              seed: int, workers: int = 1) -> MCEstimate:
    """Simulated outage probability of best-estimate relay selection with
    outdated CSI. gamma_th is the absolute threshold in watts."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation rho must lie in [0, 1], got %g" % rho)
    x = _threshold(gamma_th / policy.noise_power)
    coeffs = build_trans_coeffs(links, primary, policy, p_detect)
    m, a, u = coeffs.snr_means, coeffs.snr_first, coeffs.u_trans
    k = len(m)

    def sampler(rng, n):
        # unit-mean powers: `_outage_hits` scales relay j's by m[j] and selects
        true, est = _selection_powers(rng, rho, (n, k))
        return (_outage_hits(true, est, rng.standard_exponential(n), m, a, u, x),)

    mean, se = _held_mean(sampler, seed, 3, (k,), trials, workers, rho,
                          per_trial=8 * (2 * k + 1))
    if mean in (0.0, 1.0):
        # all-or-nothing outcome: one-count floor keeps z-tests meaningful
        se = max(se, 1.0 / trials)
    return MCEstimate(mean=mean, stderr=se, trials=int(trials), seed=int(seed))


# --- harvesting -----------------------------------------------------------

def _harvest_power_sampler(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
                           i: int):
    g = links.g_pu_relay[links.check_relay(i)]
    duty = primary.duty
    eta_pp = policy.eta * primary.tx_power

    def sampler(rng, n):
        power = _thinned(rng, n, g, duty, weights=g)
        return np.multiply(power, eta_pp, out=power)

    return sampler


def mc_harvest(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
               i: int, p_detect: float, trials: int, seed: int,
               workers: int = 1) -> MCEstimate:
    """Simulated usable harvested power of relay i: raw harvested RF power
    scaled by the probability the frame banks it."""
    if not 0.0 <= p_detect <= 1.0:
        raise ValueError("detection probability must lie in [0, 1]")
    base = _harvest_power_sampler(links, primary, policy, i)

    def sampler(rng, n):
        usable = base(rng, n)
        return (np.multiply(usable, p_detect, out=usable),)

    mean, se = _held_mean(sampler, seed, 5, (links.n_primary,), trials, workers,
                          primary.duty, per_trial=8 * links.n_primary)
    return MCEstimate(mean=mean, stderr=se, trials=int(trials), seed=int(seed))


# --- amplifier saturation -------------------------------------------------

def mc_clipped_gain(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
                    i: int, threshold_t: float, u: float, trials: int, seed: int,
                    workers: int = 1) -> MCEstimate:
    """Simulated mean squared gain of the clipped amplifier at relay i."""
    if not 0.0 <= threshold_t:
        raise ValueError("clipping threshold must be non-negative, got %g" % threshold_t)
    mix_scale = primary.tx_power / policy.noise_power
    g = links.g_pu_relay[links.check_relay(i)]
    duty = primary.duty

    def sampler(rng, n):
        lvl = mix_scale * _thinned(rng, n, g, duty)
        # np.where kept: this sampler runs only in `validate`
        return (np.where(lvl <= threshold_t, 1.0 / u, 1.0 / (lvl + 1.0)),)

    mean, se = _held_mean(sampler, seed, 7, (links.n_primary,), trials, workers,
                          duty, per_trial=8 * links.n_primary)
    return MCEstimate(mean=mean, stderr=se, trials=int(trials), seed=int(seed))


# --- frame energy ---------------------------------------------------------

def _state_bytes(frame) -> int:
    """Bytes of the arrays a frame simulator's held state (`_frame_draws`)
    keeps per chunk: its uniforms, harvested power and selection
    exponentials."""
    return sum(x.nbytes for arrays in frame[3].values() for x in arrays)


def _frame_draws(model: EnergyModel, i: int, t_sense: float, trials: int, seed: int,
                 workers: int, stream: int):
    """Set-up shared by the frame-level simulators of relay i.

    Returns the frame at t_sense, the simulated frame detection probability
    with its standard error, and draw(ci, n) -> (detected, harvested power,
    pays) for chunk ci of n draws, where `pays` marks the missed frames in
    which relay i wins selection and so pays the transmit slot.

    Nothing drawn here depends on t_sense, so the held slot keeps it (see
    the module docstring): a call with the slot's frame key, model and
    relay reads the hit rate and draws held there. Any other call draws
    them, through the frame key's tapes if held, and lets go of the slot's
    old state: before drawing when it takes more than `HELD_FIRST_BYTES`,
    else once the new state is drawn (module docstring). Chunk ci's hit
    draws come first, then
    its frame draws, the uniforms u01, the harvest's masked fades and the
    standard selection exponentials, in that order, all before any
    reduction reads them. Only the comparisons move with t_sense: u01 <
    p_det_hat and which relay has the largest exponential times the frame's
    SNR mean (`_selects`).
    """
    links, primary, policy = model.links, model.primary, model.policy
    i = int(links.check_relay(i))
    trials, seed = int(trials), int(seed)
    f = model.frame(t_sense)
    L, n_relays = links.n_primary, links.n_relays
    key = (seed, (11, stream), trials, (L, n_relays), primary.duty)
    held_key, frame = _held[::2]  # one read of the slot
    if held_key != key or frame is None or frame[0] is not model or frame[1] != i:
        # the slot holds no other draws from here on; a small old state
        # lives on here until the new one is drawn
        old = frame if frame is not None and _state_bytes(frame) <= HELD_FIRST_BYTES else None
        frame = None
        hit = _sample_exceed_sampler(links, primary, policy,
                                     policy.threshold / policy.noise_power, model.report)
        harv = _harvest_power_sampler(links, primary, policy, i)
        # the hit sampler's tape, then the uniforms, harvest fades and
        # standard selection exponentials
        draws, commit = _held_chunks(*key, _hit_tape_bytes(L, n_relays) + 8 * (1 + L + n_relays))
        chunks = {}

        def hits(ci, n):
            rng_hit, rng = draws(ci)
            exceed = hit(rng_hit, n)
            # once the hit sampler's arrays are freed; each chunk is one
            # key, written by the one worker that maps it
            chunks[ci] = rng.random(n), harv(rng, n), rng.standard_exponential((n, n_relays))
            return exceed

        frame = (model, i, _mean(hits, trials, workers), chunks)
        commit(frame)
        del old
    _, _, hit_rate, chunks = frame
    # the package's one sample count, t_sense * W unrounded, as in EnergyModel.miss
    # and Scenario.n_samples
    p_det_hat, se_det = _frame_lift(*hit_rate, t_sense * policy.bandwidth)
    m = np.asarray(f.coeffs.snr_means, dtype=float)

    def draw(ci, n):
        u01, p_h, est = chunks[ci]
        detected = u01 < p_det_hat
        return detected, p_h, _selects(est, m, i, ~detected)

    return f, p_det_hat, se_det, draw


def mc_frame_energy(model: EnergyModel, i: int, t_sense: float, trials: int,
                    seed: int, workers: int = 1, harvesting: bool = True) -> MCEstimate:
    """Simulated expected frame energy of relay i at sensing time t_sense.

    Detection is estimated from single-sample draws and applied at the
    frame level; detected frames bank a fresh harvest draw, missed frames
    pay the transmit slot of whichever relay wins selection. The standard
    error folds the detection-estimate uncertainty in quadrature.
    """
    f, _, se_det, draw = _frame_draws(model, i, t_sense, trials, seed, workers, stream=13)

    listen, transmit = f.e_listen[i], f.e_transmit[i]

    def sampler(ci, n):
        detected, p_h, pays = draw(ci, n)
        # np.where on masks p_detect skews; pays and detected never overlap
        val = np.where(pays, listen + transmit * f.t_data, listen)
        if harvesting:
            val = np.where(detected, listen - p_h * f.t_data, val)
        return (val,)

    mean, se = _mean(sampler, trials, workers)
    sens = f.t_data * (f.prr(i) * transmit
                       + (model.harvest_mean[i] if harvesting else 0.0))
    # sqrt(se**2 + (sens * se_det)**2) in `_units`, so neither square overflows
    k = _units(max(se, abs(sens * se_det)))
    se, b = math.ldexp(se, -k), math.ldexp(sens * se_det, -k)
    se_total = math.ldexp(math.sqrt(se * se + b * b), k)
    return MCEstimate(mean=mean, stderr=se_total, trials=int(trials), seed=int(seed))


def mc_ecg(model: EnergyModel, i: int, t_sense: float, trials: int, seed: int,
           workers: int = 1) -> MCEstimate:
    """Simulated consumed-to-harvested ratio at the frame level for relay i,
    a ratio of means with a delta-method standard error that also carries
    the detection-estimate uncertainty."""
    f, p_det_hat, se_det, draw = _frame_draws(model, i, t_sense, trials, seed, workers,
                                              stream=17)
    if p_det_hat == 0.0:
        raise NoDetectionError("no detections in simulation: ratio is infinite")
    listen, transmit = f.listen_linear(i), f.e_transmit[i]

    def sampler(ci, n):
        detected, p_h, pays = draw(ci, n)
        # np.where on masks p_detect skews, so its branch predicts well
        consumed = np.where(pays, listen + transmit * f.t_data, listen)
        harvested = np.where(detected, p_h * f.t_data, 0.0)
        return consumed, harvested

    (sc, sh), ((scc, sch), (_, shh)), (kc, kh) = _reduce(sampler, trials, workers)
    n = int(trials)
    # consumed in units of 2**kc, harvested in 2**kh, r in 2**(kc - kh)
    cbar, hbar = sc / n, sh / n
    if hbar == 0.0:
        raise NoDetectionError("ratio denominator averaged to zero")
    var_c = max(scc - n * cbar * cbar, 0.0) / (n - 1)
    var_h = max(shh - n * hbar * hbar, 0.0) / (n - 1)
    cov = (sch - n * cbar * hbar) / (n - 1)
    r = cbar / hbar
    var_r = max(var_c - 2.0 * r * cov + r * r * var_h, 0.0) / (n * hbar * hbar)
    # d r / d p_det: a detection moves the transmit cost into the harvest
    sens = f.t_data * (f.prr(i) * math.ldexp(transmit, -kc)
                       + r * math.ldexp(model.harvest_mean[i], -kh)) / hbar
    var_r += (sens * se_det) ** 2
    k = kc - kh
    return MCEstimate(mean=math.ldexp(r, k), stderr=math.ldexp(math.sqrt(var_r), k),
                      trials=n, seed=int(seed))
