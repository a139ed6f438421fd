#!/usr/bin/env python3
"""Time start-up, the special functions, the data-phase chain and every Monte
Carlo sampler, and write them as JSON: to `results/bench.json` by default,
or to a new BENCH_<n>.json baseline with `--out`.

    PYTHONPATH=src python3 scripts/bench.py
    PYTHONPATH=src python3 scripts/bench.py --out BENCH_10.json
    PYTHONPATH=src python3 scripts/bench.py --trials 65536
    PYTHONPATH=src python3 scripts/bench.py --only startup --out results/startup.json
    PYTHONPATH=src python3 scripts/bench.py --only chain --out results/chain.json
    PYTHONPATH=src python3 scripts/bench.py --only held --out results/held.json

`startup`: the median wall time of `STARTUP_RUNS` fresh interpreters that
run `import relaysense.cli`, and the `-X importtime` total of one more (the
sum of every module's own import time).

`specfun`: microseconds per call of each special-function kernel on one
float and on an array of L values, L = 3 and 12 (what an interference law
with L primaries hands it), the best of `REPEAT` timed loops; and
milliseconds per `sensing.detection_probability` call on the fig3 ladder
with L = 1..12 primaries.

`chain`: microseconds per call of the scenario and data-phase chain on the
`default` (2 relays) and `fig7` (4 relays) presets, the best of `REPEAT`
timed loops: an `EnergyModel` construction on the scenario's built
`LinkSet` (reporting chain, miss probability and harvest means),
`sensing.build_report_gain`, `sensing.detection_probability`,
`transmission.build_trans_coeffs`, `EnergyModel.frame` at a sensing time
the model has not seen (so it builds the frame),
`transmission.outage_probability`, and `optimize_sensing_time` on a fresh
`EnergyModel` (built before the timed loop). The model build, the
reporting chain, the fresh frame and the optimisation also on the `figure
table1` cell with 4 relays and 4 primaries (`table1-M4L4`), the largest of
the 16 optimisations. The model build and the reporting chain also on
fig4 with every relay on a primary family of its own (`fig4-distinct`),
where expanding each distinct family once saves nothing, so its rows show
what the sharing costs. The reporting chain and the detection probability
also on the benchmark's two-relay fig3 ladder at L = 12 (`ladder-L12`).
Also the construction of a `LinkSet` (gains, checks and peak gains) on
`default`, `fig3`, fig3's L = 12 ladder and `fig4-distinct`.

`mc`: each `mcsim.mc_*` sampler runs on the `default` and `fig7` presets at
a fixed seed, with 1 and 2 workers, `MC_REPEAT` times; every row gives the
best and the median, per 2^20 draws. Each one-shot repeat starts with
`mcsim`'s held slot emptied, so it draws afresh. A `draws` row per sampler
and preset makes the same Philox draws, in the same order and shapes, with
no arithmetic on them: one untimed call of the sampler logs every call it
makes on its chunk generators, and the row makes those calls again
(`_draw_plan`). The one-shot row less the draws row is the sampler's
arithmetic and reduction, as far as one run's noise lets it show. The four
stateless samplers are also
timed held: the third consecutive call with one key, which replays the
draws the first call recorded, or the second for a tape over
`mcsim.HELD_FIRST_BYTES` (the first two calls are not timed). The frame
simulators (`mc_frame_energy` with and without harvesting, `mc_ecg`) are
timed twice: cold, the first call on a fresh `EnergyModel` with the slot
emptied (it draws the hit rate and, inside that reduction, the frame
draws, and the slot keeps both with the model), and warm, the next call at
a new sensing time on the same model and relay (it reads them from the
slot and redoes only the comparisons). Building the model is not timed.
`mc_frame_energy` is also timed held on `fig6`, as fig6's rows run it: on a
fresh model per call, so the slot's frame state never matches, the third
consecutive call replays the hit-rate and frame draws an earlier call
recorded. `mc_outage` is also timed held, and its draws alone, on `fig4`
at `FIG4_OUTAGE_TRIALS` draws per call, the size of geometry-sweep's fig4
rows, whose tape is recorded on the first call.

`held`: the held slot at `HELD_TRIALS` draws per call, whatever `--trials`
says. Per sampler (the four stateless ones on `default` and `fig7`, and
`mc_frame_energy` on a fresh `fig6` model per call), the median time of a
key's first, second and third consecutive call over `REPEAT` runs, each
run starting with the slot emptied, and the bytes of the tape held after
the third. Then the budget curve: `mcsim.HELD_FIRST_BYTES` set to each of
`BUDGETS_MIB` against the Monte Carlo time (best of `CURVE_REPEAT`) and the
largest tape held after any call of three sweeps, each at the trial count
its benchmark workload uses (`HELD_SWEEPS`): fig3's detection rows, fig6's
frame-energy rows on a fresh model per row, and one detection per primary
count on the fig3 ladder with two relays, L = 1..12. The scenarios and
models are built before the timed loop.

`figures`: the wall time and the child's peak RSS (`ru_maxrss`) of
`relaysense figure` for every stock figure (`FIGURES`), at `FIGURE_TRIALS`
trials and `FIGURE_WORKERS` workers, in a fresh interpreter with the one
BLAS thread set below, median of `REPEAT` runs. A child's `ru_maxrss`
counts the memory of the process it was forked from, so this section runs
right after start-up, and each row also gives this process's own peak RSS
(`bench_maxrss_mb`), a floor under the child's. Not part of CI: each run
takes seconds.

The file also records the line count of each of the imported package's
modules, their total and SHA-256, and the host. A markdown table of the
same numbers goes to standard output.
"""
import argparse
import gc
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import weakref

# One BLAS thread, so the only parallelism is the samplers' own worker
# threads. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import relaysense  # noqa: E402
from relaysense import cli, energy_opt, mcsim, sensing, specfun, transmission  # noqa: E402
from relaysense.fading import LinkSet  # noqa: E402
from relaysense.scenario import (apply_overrides, ladder_conf, preset,  # noqa: E402
                                 relay_ladder_conf, scenario_from_conf)

UNIT = 1 << 20
PRESETS = ("default", "fig7")
SEED = 1
REPEAT = 3
# the `mc` section's runs per row: its rows move by tens of percent run to
# run on a shared VM, so each gives the best and the median of this many
MC_REPEAT = 7
# draws per call of the held fig4 outage row, as geometry-sweep's fig4 rows
FIG4_OUTAGE_TRIALS = 1 << 15
STARTUP_RUNS = 5
SECTIONS = ("startup", "specfun", "chain", "mc", "held", "figures")
HELD_TRIALS = 1 << 15
BUDGETS_MIB = (0, 1, 2, 4, 8, 16)
# (sweep, draws per call): geometry-sweep runs 2^15, tsense-sweep 2^14
HELD_SWEEPS = (("fig3", 1 << 15), ("fig6", 1 << 14), ("ladder", 1 << 15))
# the budget curve's runs per point: its sweeps take 0.03-0.3 s each
CURVE_REPEAT = 7
FIGURES = ("fig3", "fig4", "fig6", "fig7", "fig8", "table1")
FIGURE_TRIALS = 1_000_000
FIGURE_WORKERS = 2
# fig4 with every relay on a primary family of its own: the geometry where
# sharing a family's expansion saves nothing (relay 0's row is the source's)
DISTINCT = ("fig4-distinct", lambda: apply_overrides(
    preset("fig4"), ["links.d_pu_relay=0.3, 0.32; 0.31, 0.33"]))
# (name, config) of the geometries whose LinkSet construction is timed
LINKSETS = (("default", lambda: preset("default")), ("fig3", lambda: preset("fig3")),
            ("fig3-L12", lambda: ladder_conf(preset("fig3"), 0.4, 12)), DISTINCT)
# (name, config, the steps timed or None for all) of the data-phase chain's
# geometries; table1-M4L4 is the `figure table1` cell with 4 relays and 4
# primaries, timed on the model build and the optimiser's two steps, and
# ladder-L12 the benchmark's two-relay fig3 ladder at L = 12
CHAIN_CELLS = tuple((name, lambda name=name: preset(name), None) for name in PRESETS) + (
    ("table1-M4L4", lambda: relay_ladder_conf(ladder_conf(preset("table1"), 1.0, 4, 0.01),
                                              0.5, 0.5, 4, 0.005),
     ("EnergyModel", "build_report_gain", "EnergyModel.frame", "optimize_sensing_time")),
    DISTINCT + (("EnergyModel", "build_report_gain"),),
    ("ladder-L12", lambda: relay_ladder_conf(ladder_conf(preset("fig3"), 0.48, 12),
                                             0.1, 0.1, 2),
     ("build_report_gain", "detection_probability")),
)

# (name, kernel, a typical scalar argument)
KERNELS = (("bessel_k1_scaled", specfun.bessel_k1_scaled, 3.0),
           ("exp_scaled_gamma_upper_0", specfun.exp_scaled_gamma_upper_0, 0.5),
           ("bessel_j0", specfun.bessel_j0, 2.0))
ARRAY_SIZES = (3, 12)
LADDER = tuple(range(1, 13))


def startup():
    """Fresh-interpreter import of the CLI: median wall seconds over
    STARTUP_RUNS runs, and the -X importtime total of one more run."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(relaysense.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-c", "import relaysense.cli"]
    runs = []
    for _ in range(STARTUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        runs.append(time.perf_counter() - t0)
    trace = subprocess.run(cmd[:1] + ["-X", "importtime"] + cmd[1:], env=env, check=True,
                           capture_output=True, text=True).stderr
    # "import time: <self us> | <cumulative us> | <module>", one line per module
    own = [int(m) for m in re.findall(r"^import time:\s+(\d+)\s*\|", trace, re.M)]
    return {"import_cli_s_median": statistics.median(runs), "runs_s": runs,
            "importtime_total_s": sum(own) * 1e-6, "importtime_modules": len(own)}


def _best_per_call(fn, make):
    """Best of REPEAT loops of fn(make()), in seconds per call; each loop
    runs at least 0.05 s. The arguments of a loop are made before it
    starts, so make() is not timed."""
    loops = 1
    while True:
        args = [make() for _ in range(loops)]
        t0 = time.perf_counter()
        for arg in args:
            fn(arg)
        if time.perf_counter() - t0 >= 0.05:
            break
        loops *= 4
    best = math.inf
    for _ in range(REPEAT):
        args = [make() for _ in range(loops)]
        t0 = time.perf_counter()
        for arg in args:
            fn(arg)
        best = min(best, (time.perf_counter() - t0) / loops)
    return best


def specfun_rows():
    """(kernel rows, detection rows): us per kernel call, ms per
    detection_probability call on the fig3 ladder."""
    kernels = []
    for name, fn, x in KERNELS:
        kernels.append({"kernel": name, "size": None,
                        "us_per_call": 1e6 * _best_per_call(fn, lambda: x)})
        for size in ARRAY_SIZES:
            xs = x * np.geomspace(0.1, 10.0, size)
            kernels.append({"kernel": name, "size": size,
                            "us_per_call": 1e6 * _best_per_call(fn, lambda: xs)})
    detection = []
    for n_pu in LADDER:
        scn = scenario_from_conf(ladder_conf(preset("fig3"), 0.4, n_pu))
        p = scn.policy
        ms = 1e3 * _best_per_call(lambda s: sensing.detection_probability(
            p.threshold, s.n_samples, s.links, s.primary, p), lambda: scn)
        detection.append({"n_primary": n_pu, "ms_per_call": ms})
    return kernels, detection


def chain_rows():
    """us per call of each data-phase step on each preset, then of a fresh
    frame and an optimisation on the table1 cell."""
    rows = []
    for name, conf, only in CHAIN_CELLS:
        scn = scenario_from_conf(conf())
        links, primary, policy = scn.links, scn.primary, scn.policy
        model = scn.energy_model()
        pd = model.frame(scn.t_sense).p_detect
        # each call gets a sensing time the model has not seen yet
        fresh_t = (scn.t_sense * (1.0 + 1e-9 * k) for k in itertools.count(1))
        steps = (
            ("EnergyModel", lambda s: s.energy_model(), lambda: scn),
            ("build_report_gain", lambda _: sensing.build_report_gain(links, primary, policy),
             lambda: None),
            ("detection_probability", lambda _: sensing.detection_probability(
                policy.threshold, scn.n_samples, links, primary, policy), lambda: None),
            ("build_trans_coeffs", lambda p: transmission.build_trans_coeffs(
                links, primary, policy, p), lambda: pd),
            ("EnergyModel.frame", model.frame, lambda: next(fresh_t)),
            ("outage_probability", lambda p: transmission.outage_probability(
                scn.gamma_th, links, primary, policy, p, scn.rho), lambda: pd),
            ("optimize_sensing_time", lambda m: energy_opt.optimize_sensing_time(
                m, scn.relay, scn.d_star), scn.energy_model),
        )
        for step, fn, make in steps:
            if only and step not in only:
                continue
            rows.append({"preset": name, "relays": links.n_relays, "step": step,
                         "us_per_call": 1e6 * _best_per_call(fn, make)})
    for name, conf in LINKSETS:
        links = scenario_from_conf(conf()).links
        fields = (links.d_src_relay, links.d_relay_dst, links.d_pu_src, links.d_pu_relay,
                  links.d_pu_dst, links.alpha)
        rows.append({"preset": name, "relays": links.n_relays, "step": "LinkSet",
                     "us_per_call": 1e6 * _best_per_call(lambda f: LinkSet(*f),
                                                         lambda: fields)})
    return rows


def _one_shot(scn):
    """name -> fn(workers) running one sampler on scenario scn."""
    links, primary, policy = scn.links, scn.primary, scn.policy
    pd = sensing.detection_probability(policy.threshold, scn.n_samples, links, primary,
                                       policy)
    report = sensing.build_report_gain(links, primary, policy)
    u0 = report.u_report[scn.relay]
    thr = sensing.solve_saturation_gain(report.relays[scn.relay], u0)
    n = scn.trials
    return {
        "mc_detection": lambda w: mcsim.mc_detection(
            links, primary, policy, policy.threshold, scn.n_samples, n, SEED, workers=w),
        "mc_outage": lambda w: mcsim.mc_outage(
            links, primary, policy, scn.gamma_th, pd, scn.rho, n, SEED, workers=w),
        "mc_harvest": lambda w: mcsim.mc_harvest(
            links, primary, policy, scn.relay, pd, n, SEED, workers=w),
        "mc_clipped_gain": lambda w: mcsim.mc_clipped_gain(
            links, primary, policy, scn.relay, thr, u0, n, SEED, workers=w),
    }


FRAME_SIMS = {
    "mc_frame_energy": lambda m, i, t, n, w: mcsim.mc_frame_energy(m, i, t, n, SEED, workers=w),
    "mc_frame_energy_noharv": lambda m, i, t, n, w: mcsim.mc_frame_energy(
        m, i, t, n, SEED, workers=w, harvesting=False),
    "mc_ecg": lambda m, i, t, n, w: mcsim.mc_ecg(m, i, t, n, SEED, workers=w),
}


def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _fresh(fn):
    """Time fn with the held slot emptied first, so it draws afresh."""
    mcsim.clear_held()
    return _timed(fn)


def _replayed(fn):
    """Time the third consecutive call of fn: it replays the draws the first
    or the second recorded."""
    mcsim.clear_held()
    fn()
    fn()
    return _timed(fn)


class _LoggedRng:
    """Generator stand-in that passes each call to rng and logs it in
    `calls` as (generator index, method, args, kwargs). An `out=` buffer
    that an earlier logged draw of the chunk returned is logged as that
    draw's index, any other as its (shape, dtype)."""

    def __init__(self, rng, index, calls, made):
        self._rng, self._index, self._calls, self._made = rng, index, calls, made

    def __getattr__(self, method):
        def draw(*args, **kwargs):
            x = getattr(self._rng, method)(*args, **kwargs)
            out = kwargs.get("out")
            if out is not None:
                kept = [i for i, ref in enumerate(self._made) if ref() is out]
                kwargs = dict(kwargs, out=kept[0] if kept else (out.shape, out.dtype))
            self._calls.append((self._index, method, args, kwargs))
            self._made.append(weakref.ref(x))
            return x

        return draw


def _draw_plan(run):
    """fn(trials, workers) making the Philox draws that run() makes, and
    nothing else. run() is called once, untimed, on an empty held slot,
    with every chunk generator `mcsim` makes logging its calls
    (`_LoggedRng`); fn makes the same generators and calls again, chunk by
    chunk, so it must be given run()'s trial count."""
    real, log = mcsim._chunk_rng, {}

    def logging_rng(seed, stream, ci):
        gens, calls, made = log.setdefault(ci, ([], [], []))
        gens.append((seed, stream))
        return _LoggedRng(real(seed, stream, ci), len(gens) - 1, calls, made)

    mcsim.clear_held()
    mcsim._chunk_rng = logging_rng
    try:
        run()
    finally:
        mcsim._chunk_rng = real
        mcsim.clear_held()
    # the draws whose arrays a later call fills again through `out=`
    reused = {ci: {kw["out"] for _, _, _, kw in calls if isinstance(kw.get("out"), int)}
              for ci, (_, calls, _) in log.items()}

    def chunk(ci, n):
        gens, calls, _ = log[ci]
        rngs = [real(seed, stream, ci) for seed, stream in gens]
        made = {}
        for i, (g, method, args, kwargs) in enumerate(calls):
            out = kwargs.get("out")
            if out is not None:
                kwargs = dict(kwargs, out=made[out] if isinstance(out, int) else np.empty(*out))
            x = getattr(rngs[g], method)(*args, **kwargs)
            if i in reused[ci]:
                made[i] = x

    return lambda trials, w: mcsim._map_chunks(chunk, trials, w)


def measure(trials):
    rows = []

    def add(name, sampler, slot, workers, runs, n=trials):
        per = [s * UNIT / n for s in runs]
        rows.append({"preset": name, "sampler": sampler, "slot": slot, "workers": workers,
                     "trials": n, "s_per_2p20_median": statistics.median(per),
                     "s_per_2p20_min": min(per), "runs_s": runs})

    for name in PRESETS:
        scn = scenario_from_conf(apply_overrides(preset(name), ["sim.trials=%d" % trials]))
        for sampler, fn in _one_shot(scn).items():
            draws = _draw_plan(lambda: fn(1))
            for w in (1, 2):
                add(name, sampler, None, w, [_fresh(lambda: fn(w)) for _ in range(MC_REPEAT)])
                add(name, sampler, "held", w,
                    [_replayed(lambda: fn(w)) for _ in range(MC_REPEAT)])
                add(name, sampler, "draws", w,
                    [_timed(lambda: draws(trials, w)) for _ in range(MC_REPEAT)])
        for sampler, fn in FRAME_SIMS.items():
            draws = _draw_plan(lambda: fn(scn.energy_model(), scn.relay, scn.t_sense, trials, 1))
            for w in (1, 2):
                add(name, sampler, "draws", w,
                    [_timed(lambda: draws(trials, w)) for _ in range(MC_REPEAT)])
                cold, warm = [], []
                for r in range(MC_REPEAT):
                    model = scn.energy_model()
                    cold.append(_fresh(lambda: fn(model, scn.relay, scn.t_sense, trials, w)))
                    # a new sensing time on the same model and relay: the slot
                    # holds the draws, and only the comparisons move
                    t_warm = scn.t_sense * (1.5 + 0.25 * r)
                    warm.append(_timed(lambda: fn(model, scn.relay, t_warm, trials, w)))
                    del model
                add(name, sampler, "cold", w, cold)
                add(name, sampler, "warm", w, warm)
    scn = scenario_from_conf(apply_overrides(preset("fig6"), ["sim.trials=%d" % trials]))
    fn = FRAME_SIMS["mc_frame_energy"]
    for w in (1, 2):
        held = []
        for _ in range(MC_REPEAT):
            mcsim.clear_held()
            # a fresh model per call, built untimed; the third call replays
            for _ in range(3):
                model = scn.energy_model()
                t = _timed(lambda: fn(model, scn.relay, scn.t_sense, trials, w))
                del model
            held.append(t)
        add("fig6", "mc_frame_energy", "held", w, held)
    n = FIG4_OUTAGE_TRIALS
    scn = scenario_from_conf(apply_overrides(preset("fig4"), ["sim.trials=%d" % n]))
    fn = _one_shot(scn)["mc_outage"]
    draws = _draw_plan(lambda: fn(1))
    for w in (1, 2):
        add("fig4", "mc_outage", "held", w,
            [_replayed(lambda: fn(w)) for _ in range(MC_REPEAT)], n)
        add("fig4", "mc_outage", "draws", w,
            [_timed(lambda: draws(n, w)) for _ in range(MC_REPEAT)], n)
    return rows


def _held_bytes():
    tapes = mcsim._held[1]
    return sum(x.nbytes for tape in (tapes or {}).values() for _, x in tape)


def _held_samplers(trials):
    """(preset, sampler, make, fn) for every sampler that goes through the
    held slot: fn(make()) is one call, and make() is not timed. The frame
    simulator gets a fresh model per call, as fig6's rows do."""
    out = []
    for name in PRESETS:
        scn = scenario_from_conf(apply_overrides(preset(name), ["sim.trials=%d" % trials]))
        out += [(name, sampler, lambda: None, lambda _, fn=fn: fn(1))
                for sampler, fn in _one_shot(scn).items()]
    scn = scenario_from_conf(apply_overrides(preset("fig6"), ["sim.trials=%d" % trials]))
    out.append(("fig6", "mc_frame_energy", scn.energy_model, lambda model: mcsim.mc_frame_energy(
        model, scn.relay, scn.t_sense, trials, SEED)))
    return out


def held_calls(trials=HELD_TRIALS):
    """Per sampler: seconds of a key's first, second and third consecutive
    call (medians of REPEAT runs) and the tape bytes held after the third."""
    rows = []
    for name, sampler, make, fn in _held_samplers(trials):
        runs = []
        for _ in range(REPEAT):
            mcsim.clear_held()
            times = []
            for _ in range(3):
                arg = make()
                times.append(_timed(lambda: fn(arg)))
                del arg
            runs.append(times)
        rows.append({"preset": name, "sampler": sampler, "trials": trials,
                     "call_s": [statistics.median(t) for t in zip(*runs)],
                     "tape_bytes": _held_bytes()})
    mcsim.clear_held()
    return rows


def _held_sweep(sweep, trials):
    """make() -> one run of a sweep's Monte Carlo calls, as functions of no
    arguments over scenarios built here and, for fig6, a fresh model per row
    built by make()."""
    conf = apply_overrides(preset("fig6" if sweep == "fig6" else "fig3"),
                           ["sim.trials=%d" % trials])
    if sweep == "ladder":
        # two relays, as geometry-sweep's ladder has
        scns = [scenario_from_conf(relay_ladder_conf(ladder_conf(conf, 0.4, n_pu),
                                                     0.1, 0.1, 2)) for n_pu in LADDER]
    else:
        points = ([(d, n_pu) for n_pu in (1, 3) for d in cli._distances(10)]
                  if sweep == "fig6" else
                  [(d, n_pu) for n_pu in (1, 2, 3) for d in cli._distances(15)])
        scns = [scenario_from_conf(ladder_conf(conf, d, n_pu)) for d, n_pu in points]

    def make():
        if sweep == "fig6":
            return [lambda s=s, m=s.energy_model(): mcsim.mc_frame_energy(
                m, s.relay, s.t_sense, trials, SEED) for s in scns]
        return [lambda s=s: mcsim.mc_detection(s.links, s.primary, s.policy, s.policy.threshold,
                                               s.n_samples, trials, SEED) for s in scns]
    return make


def budget_curve():
    """Per (budget, sweep): the best Monte Carlo time of CURVE_REPEAT runs,
    each starting with the slot emptied, and the largest tape held after a call.
    The repeats go round every budget and sweep in turn, so that a drift in
    the host's speed reaches them all alike."""
    makes = {sweep: _held_sweep(sweep, trials) for sweep, trials in HELD_SWEEPS}
    best, peak = {}, {}
    default = mcsim.HELD_FIRST_BYTES
    try:
        for _ in range(CURVE_REPEAT):
            for mib in BUDGETS_MIB:
                mcsim.HELD_FIRST_BYTES = mib << 20
                for sweep, _ in HELD_SWEEPS:
                    mcsim.clear_held()
                    calls = makes[sweep]()
                    gc.collect()
                    most = 0
                    t0 = time.perf_counter()
                    for call in calls:
                        call()
                        most = max(most, _held_bytes())
                    t = time.perf_counter() - t0
                    del calls
                    best[mib, sweep] = min(best.get((mib, sweep), math.inf), t)
                    peak[mib, sweep] = most
    finally:
        mcsim.HELD_FIRST_BYTES = default
        mcsim.clear_held()
    return [{"budget_mib": mib, "sweep": sweep, "trials": trials, "s_best": best[mib, sweep],
             "peak_tape_bytes": peak[mib, sweep]}
            for mib in BUDGETS_MIB for sweep, trials in HELD_SWEEPS]


def figure_runs():
    """Per figure: wall seconds and the child's ru_maxrss in MB of
    `relaysense figure` at FIGURE_TRIALS trials, median of REPEAT runs,
    with this process's own peak RSS, a floor under every child's."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(relaysense.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in FIGURES:
            cmd = [sys.executable, "-m", "relaysense", "--trials", str(FIGURE_TRIALS),
                   "--workers", str(FIGURE_WORKERS), "--out", os.path.join(tmp, name + ".csv"),
                   "figure", name]
            wall, rss = [], []
            for _ in range(REPEAT):
                t0 = time.perf_counter()
                child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
                _, status, usage = os.wait4(child.pid, 0)
                wall.append(time.perf_counter() - t0)
                if os.waitstatus_to_exitcode(status) != 0:
                    raise RuntimeError("%s exited with status %d" % (" ".join(cmd), status))
                rss.append(usage.ru_maxrss / 1024.0)  # KiB on Linux
            rows.append({"figure": name, "trials": FIGURE_TRIALS, "workers": FIGURE_WORKERS,
                         "wall_s_median": statistics.median(wall),
                         "maxrss_mb_median": statistics.median(rss),
                         "wall_s": wall, "maxrss_mb": rss,
                         "bench_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0})
    return rows


def src_stats():
    """({module file: line count}, SHA-256) of the imported package's .py files."""
    pkg = os.path.dirname(os.path.abspath(relaysense.__file__))
    lines, digest = {}, hashlib.sha256()
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                text = fh.read()
            lines[fname] = text.count(b"\n")
            digest.update(fname.encode() + b"\0" + text)
    return lines, digest.hexdigest()


def host():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": _version("scipy")}


def _version(dist):
    """Installed version of dist, or None; the package itself needs no scipy."""
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def startup_table(st):
    return ("| start-up | seconds |\n|---|---|\n"
            "| `import relaysense.cli`, median of %d fresh interpreters | %.3f |\n"
            "| `-X importtime` total (%d modules) | %.3f |"
            % (len(st["runs_s"]), st["import_cli_s_median"], st["importtime_modules"],
               st["importtime_total_s"]))


def specfun_table(kernels, detection):
    lines = ["| kernel | argument | us per call |", "|---|---|---|"]
    for r in kernels:
        lines.append("| %s | %s | %.2f |" % (r["kernel"], "float" if r["size"] is None
                                              else "%d values" % r["size"], r["us_per_call"]))
    lines += ["", "| L | detection_probability, ms per call |", "|---|---|"]
    lines += ["| %d | %.3f |" % (r["n_primary"], r["ms_per_call"]) for r in detection]
    return "\n".join(lines)


def chain_table(rows):
    lines = ["| preset | relays | step | us per call |", "|---|---|---|---|"]
    lines += ["| %s | %d | %s | %.1f |" % (r["preset"], r["relays"], r["step"], r["us_per_call"])
              for r in rows]
    return "\n".join(lines)


def table(rows):
    lines = ["| preset | sampler | slot | workers | trials | s per 2^20 draws (median) | min |",
             "|---|---|---|---|---|---|---|"]
    for r in rows:
        lines.append("| %s | %s | %s | %d | %d | %.4f | %.4f |"
                     % (r["preset"], r["sampler"], r["slot"] or "", r["workers"], r["trials"],
                        r["s_per_2p20_median"], r["s_per_2p20_min"]))
    return "\n".join(lines)


def held_table(calls, curve):
    lines = ["| preset | sampler | trials | 1st call, s | 2nd | 3rd | tape, MB |",
             "|---|---|---|---|---|---|---|"]
    lines += ["| %s | %s | %d | %.4f | %.4f | %.4f | %.2f |"
              % ((r["preset"], r["sampler"], r["trials"]) + tuple(r["call_s"])
                 + (r["tape_bytes"] / 1e6,)) for r in calls]
    lines += ["", "| budget, MiB | sweep | trials | MC s (best) | peak tape, MB |",
              "|---|---|---|---|---|"]
    lines += ["| %d | %s | %d | %.4f | %.2f |" % (r["budget_mib"], r["sweep"], r["trials"],
                                                   r["s_best"], r["peak_tape_bytes"] / 1e6)
              for r in curve]
    return "\n".join(lines)


def figures_table(rows):
    lines = ["| figure | trials | workers | wall s (median) | peak RSS, MB (median) |",
             "|---|---|---|---|---|"]
    lines += ["| %s | %d | %d | %.2f | %.1f |" % (r["figure"], r["trials"], r["workers"],
                                                  r["wall_s_median"], r["maxrss_mb_median"])
              for r in rows]
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=UNIT, help="draws per sampler call")
    ap.add_argument("--out", default="results/bench.json", help="output JSON path")
    ap.add_argument("--only", choices=SECTIONS, action="append",
                    help="measure only this section (repeatable); default: all")
    args = ap.parse_args(argv)
    if args.trials < 2:
        ap.error("need --trials >= 2")
    sections = args.only or SECTIONS

    module_loc, sha = src_stats()
    loc = sum(module_loc.values())
    doc = {"trials": args.trials, "repeat": REPEAT, "mc_repeat": MC_REPEAT, "seed": SEED,
           "unit_draws": UNIT, "src_loc": loc, "src_module_loc": module_loc,
           "src_sha256": sha, "host": host()}
    out = []
    # start-up first, before this process has warmed any file cache further
    if "startup" in sections:
        doc["startup"] = startup()
        out.append(startup_table(doc["startup"]))
    # before any section that grows this process: a child's ru_maxrss
    # counts the memory it was forked with
    if "figures" in sections:
        doc["figures"] = figure_runs()
        out.append(figures_table(doc["figures"]))
    # and before `mc`'s 2^20-draw calls have grown this process's heap
    if "held" in sections:
        doc["held"] = {"calls": held_calls(), "budget_curve": budget_curve()}
        out.append(held_table(doc["held"]["calls"], doc["held"]["budget_curve"]))
    if "specfun" in sections:
        kernels, detection = specfun_rows()
        doc["specfun"] = {"kernels": kernels, "detection": detection}
        out.append(specfun_table(kernels, detection))
    if "chain" in sections:
        doc["chain"] = chain_rows()
        out.append(chain_table(doc["chain"]))
    if "mc" in sections:
        doc["mc"] = measure(args.trials)
        out.append("Monte Carlo samplers, median and best of %d\n\n%s"
                   % (MC_REPEAT, table(doc["mc"])))
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("src/ %d lines (%s)\n\n%s" % (loc, ", ".join("%s %d" % kv for kv in module_loc.items()),
                                          "\n\n".join(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
