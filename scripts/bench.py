#!/usr/bin/env python3
"""Time start-up, the special functions, the data-phase chain and every Monte
Carlo sampler, and write them as JSON: to `results/bench.json` by default,
or to a new BENCH_<n>.json baseline with `--out`.

    PYTHONPATH=src python3 scripts/bench.py
    PYTHONPATH=src python3 scripts/bench.py --out BENCH_11.json
    PYTHONPATH=src python3 scripts/bench.py --trials 65536
    PYTHONPATH=src python3 scripts/bench.py --only startup --out results/startup.json
    PYTHONPATH=src python3 scripts/bench.py --only chain --out results/chain.json
    PYTHONPATH=src python3 scripts/bench.py --only held --out results/held.json
    PYTHONPATH=src python3 scripts/bench.py --only tier1 --out results/tier1.json
    PYTHONPATH=src python3 scripts/bench.py --only chain --against ../parent
    PYTHONPATH=src python3 scripts/bench.py --perfbench tsense-sweep --against ../parent \
        --pairs 10 --out results/pairs.json

Every section is a list of cases, each a dict of labels and a function
that makes one run and returns named measurements, and one driver
(`drive`) times them: `--repeat` rounds (by default `REPEAT`), each of
which runs every case of the section once, in a fixed order, so that a
drift in the host's speed reaches every row alike. Each row gives the
median, the best and the runs of each measurement, and one writer
(`table`) prints every section. A call of a few microseconds is timed as a
loop whose length is sized once, untimed, to take at least 0.05 s
(`per_call`).

`startup`: the wall time of a fresh interpreter that runs `import
relaysense.cli`, and the `-X importtime` total (every module's own import
time) of another.

`specfun`: microseconds per call of each special-function kernel on one
float and on an array of L values, L = 3 and 12 (what an interference law
with L primaries hands it); microseconds per `InterferenceLaw.cdf` call at
the detection threshold on the fig3 ladder's law with L = 3, 12 and 16
primaries; and milliseconds per `detection_probability` call on the fig3
ladder with L = 1..16 primaries.

`chain`: microseconds per call of the scenario and data-phase chain on the
`default` (2 relays) and `fig7` (4 relays) presets: `scenario_from_conf`
on the preset's config tree (the parse, the model objects and the
float-range check, which every CLI command pays), a `LinkSet`
construction on the scenario's distances (gains, checks, family map and
peak gains), an `EnergyModel` construction on the scenario's built
`LinkSet` (reporting chain, miss probability and harvest means),
`sensing.build_report_gain`, `sensing.detection_probability`,
`transmission.build_trans_coeffs`, `EnergyModel.frame` at a sensing time
the model has not seen (so it builds the frame),
`transmission.outage_probability`, and `optimize_sensing_time` on a fresh
`EnergyModel` (built untimed). The scenario build, the model build, the
reporting chain, the fresh frame and the optimisation also on the `figure
table1` cell with 4 relays and 4 primaries (`table1-M4L4`), the largest of
the 16 optimisations, and the model build, the fresh frame and the
optimisation on the cells with 1 relay and 1 primary (`table1-M1L1`) and 2
and 2 (`table1-M2L2`). Each optimisation row also gives two counts of one
optimisation on a fresh model, which the search fixes and which must read
alike on two trees that search alike: the frames it builds
(`frame_builds`) and its `build_trans_coeffs` calls (`coeff_builds`). The
scenario build, the `LinkSet`, the model build
and the reporting chain also on fig4 with every relay on a primary family
of its own (`fig4-distinct`), where expanding each distinct family once
saves nothing, so its rows show what the sharing costs. The scenario
build, the `LinkSet`, the reporting chain and the detection probability on
the fig3 ladder at L = 3 (`fig3-L3`), the shape of a geometry-sweep point.
The scenario build, the reporting chain and the detection probability on
the benchmark's two-relay fig3 ladder at L = 12 (`ladder-L12`), and the
`LinkSet` of the one-relay fig3 ladder at L = 12 (`fig3-L12`). Last, a
command's fixed cost: a `cli.build_parser()` call (what `cli.main` pays
once per process), and an in-process `cli.main(["--no-mc", command])` on
`default`, its standard output captured, for each of `CLI_COMMANDS`.

`held` and `mc` time each sampler through `mcsim`'s held slot with one
case per key (`held_key`): it empties the slot, then times the key's
first, second and third consecutive calls, and gives the bytes of the tape
held after the third. A key records its draws on its first call, or on its
second for a tape over `mcsim.HELD_FIRST_BYTES`, and replays them later.
The keys are the four stateless samplers on the `default` and `fig7`
presets, and `mc_frame_energy` on `fig6` with a fresh model per call
(built untimed), as fig6's rows run it, so that the slot's frame state
never matches. `held` runs them at `HELD_TRIALS` draws per call, whatever
`--trials` says, with one worker.

`mc`: those cases at `--trials` draws per call with 1 and 2 workers, and
per sampler and preset a `draws` row that makes the same Philox draws, in
the same order and shapes, with no arithmetic on them: one untimed call of
the sampler logs every call it makes on its chunk generators, and the row
makes those calls again (`_draw_plan`). A call less the draws row is the
sampler's arithmetic and reduction, as far as the runs' spread lets it
show. The frame simulators (`mc_frame_energy` with and without
harvesting, `mc_ecg`) are timed cold and then warm on one fresh
`EnergyModel` per run (`cold_warm`): cold, the first call with the slot
emptied (it draws the hit rate and, inside that reduction, the frame
draws, and the slot keeps both with the model), and warm, the next call at
a new sensing time on the same model and relay (it reads them from the
slot and redoes only the comparisons). `mc_outage` is also timed, with its
draws row, on `fig4` at `FIG4_OUTAGE_TRIALS` draws per call, the size of
geometry-sweep's fig4 rows.

`figures`: the wall time and the child's peak RSS (`ru_maxrss`) of
`relaysense figure` for every stock figure (`FIGURES`), once with Monte
Carlo and once with `--no-mc` (rows `mc` yes and no, side by side), and of
`relaysense validate` on `default`, at `FIGURE_TRIALS` trials and
`FIGURE_WORKERS` workers, in a fresh interpreter with the one BLAS thread
set below. A child's `ru_maxrss` counts the memory of the
process it was forked from, so this section runs right after start-up, and
each row also gives this process's own peak RSS (`bench_maxrss_mb`), a
floor under the child's. Not part of CI: each run takes seconds.

`tier1`: the wall time of the tier-1 command (`TIER1`) from the repository
root in a fresh interpreter, with pytest's cache off so that no run reads
what an earlier one left, one run per round. It runs
under the caller's BLAS-thread settings, not the one thread set below:
some stored standard errors were taken under numpy's default threads, and
their tests fail at one. A failing suite raises. Not part of CI: each run
takes 30-60 s.

`--against DIR` compares this tree with a second checkout DIR (say, a
`git worktree` of the parent commit) on the in-process sections, `specfun`
and `chain` (`IN_PROCESS`). Each of `--repeat` rounds runs this script
once per tree, in a fresh interpreter that imports relaysense from that
tree's `src` and times one run of every case, and the order of the two
trees alternates between rounds (`against`). Each row then gives both
trees' medians and the median over rounds of the paired ratio, this tree
over DIR, with a bootstrap 95% interval (`ratio_interval`). A ratio under
1 means this tree is faster.

`--perfbench WORKLOAD --against DIR` times the benchmark end to end
instead: `--pairs` pairs of `perfbench/run.py --workload WORKLOAD --trace
0` runs, one of this tree and one of DIR per pair, both on the pair's
fresh random seed (the output records the seeds), with
`--seconds` (by default `PERFBENCH_SECONDS`) and `--size`, and the order of
the two trees alternating between pairs (`perfbench_pairs`). Each run
imports relaysense from its own tree, and a run that reports an incorrect
output raises. Per end-to-end metric it gives both trees' medians, DIR's
interquartile range, the pairs this tree wins (in the direction
BENCHMARK.json gives), and the median paired ratio, this tree over DIR,
with its bootstrap 95% interval.

The study that set `mcsim.HELD_FIRST_BYTES` to 4 MiB, the Monte Carlo time
and peak tape of three sweeps against budgets of 0-16 MiB, is not rerun
here; its readings are in `BENCH_7.json` to `BENCH_10.json`
(`held.budget_curve`).

The file also records the line count of each of the imported package's
modules, their total and SHA-256, and the host: its CPU, platform and
versions, numpy's SIMD baseline, dispatch targets and the targets found
in use, numpy's BLAS library, and the caller's BLAS-thread variables next
to the one thread the script pins. A markdown table per
section of the same numbers goes to standard output.
"""
import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import re
import resource
import statistics
import random
import subprocess
import sys
import tempfile
import time
import weakref

# One BLAS thread, so the only parallelism is the samplers' own worker
# threads. Set before numpy is first imported; `tier1` restores the
# caller's settings.
_CALLER_BLAS = {var: os.environ.get(var)
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
for _var in _CALLER_BLAS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from numpy._core import _multiarray_umath as _umath  # noqa: E402

import relaysense  # noqa: E402
from relaysense import cli, energy_opt, mcsim, sensing, specfun, transmission  # noqa: E402
from relaysense.fading import LinkSet  # noqa: E402
from relaysense.scenario import (apply_overrides, ladder_conf, preset,  # noqa: E402
                                 relay_ladder_conf, scenario_from_conf)

TRIALS = 1 << 20
PRESETS = ("default", "fig7")
SEED = 1
# every row's runs: rows of the mc and chain sections move by tens of
# percent run to run on a shared VM, so each gives the median of this many
REPEAT = 7
# draws per call of the fig4 outage rows, as geometry-sweep's fig4 rows
FIG4_OUTAGE_TRIALS = 1 << 15
# in the order they run (see main)
SECTIONS = ("startup", "figures", "tier1", "held", "specfun", "chain", "mc")
# the sections `--against` times: those whose cases run in this process
IN_PROCESS = ("specfun", "chain")
# resamples of each row's paired ratios for its bootstrap interval
BOOTSTRAP_DRAWS = 2000
# each perfbench run's --seconds in `--perfbench` pairs, as BENCHMARK.json runs it
PERFBENCH_SECONDS = 20.0
HELD_TRIALS = 1 << 15
FIGURES = ("fig3", "fig4", "fig6", "fig7", "fig8", "table1")
FIGURE_TRIALS = 1_000_000
FIGURE_WORKERS = 2
# the tier-1 command's arguments after the interpreter
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
# fig4 with every relay on a primary family of its own: the geometry where
# sharing a family's expansion saves nothing (relay 0's row is the source's)
DISTINCT = ("fig4-distinct", lambda: apply_overrides(
    preset("fig4"), ["links.d_pu_relay=0.3, 0.32; 0.31, 0.33"]))
# (name, config, the steps timed or None for all) of the data-phase chain's
# geometries; table1-M4L4 is the `figure table1` cell with 4 relays and 4
# primaries, timed on the model build and the optimiser's two steps,
# fig3-L3 the shape of a geometry-sweep point (the fig3 ladder at L = 3),
# ladder-L12 the benchmark's two-relay fig3 ladder at L = 12, and fig3-L12
# the one-relay ladder at L = 12, timed on its LinkSet alone
def _table1_cell(n_relays, n_pu):
    """The config tree of the `figure table1` cell with n_relays relays and
    n_pu primaries."""
    return relay_ladder_conf(ladder_conf(preset("table1"), 1.0, n_pu, 0.01),
                             0.5, 0.5, n_relays, 0.005)


# the steps timed on the table1 cells besides table1-M4L4
OPTIMISER_STEPS = ("EnergyModel", "EnergyModel.frame", "optimize_sensing_time")
CHAIN_CELLS = tuple((name, lambda name=name: preset(name), None) for name in PRESETS) + (
    ("table1-M4L4", lambda: _table1_cell(4, 4),
     ("scenario_from_conf", "EnergyModel", "build_report_gain", "EnergyModel.frame",
      "optimize_sensing_time")),
    ("table1-M1L1", lambda: _table1_cell(1, 1), OPTIMISER_STEPS),
    ("table1-M2L2", lambda: _table1_cell(2, 2), OPTIMISER_STEPS),
    DISTINCT + (("scenario_from_conf", "LinkSet", "EnergyModel", "build_report_gain"),),
    ("fig3-L3", lambda: ladder_conf(preset("fig3"), 0.4, 3),
     ("scenario_from_conf", "LinkSet", "build_report_gain", "detection_probability")),
    ("ladder-L12", lambda: relay_ladder_conf(ladder_conf(preset("fig3"), 0.48, 12),
                                             0.1, 0.1, 2),
     ("scenario_from_conf", "build_report_gain", "detection_probability")),
    ("fig3-L12", lambda: ladder_conf(preset("fig3"), 0.4, 12), ("LinkSet",)),
)
# the single-quantity commands whose in-process `cli.main` call is timed
CLI_COMMANDS = ("detect", "outage", "harvest", "energy", "optimize")

# (name, kernel, a typical scalar argument)
KERNELS = (("bessel_k1_scaled", specfun.bessel_k1_scaled, 3.0),
           ("exp_scaled_gamma_upper_0", specfun.exp_scaled_gamma_upper_0, 0.5),
           ("bessel_j0", specfun.bessel_j0, 2.0))
ARRAY_SIZES = (3, 12)
CDF_LADDER = (3, 12, 16)
LADDER = tuple(range(1, 17))


def drive(cases, repeat=None):
    """Time cases, (labels, run) pairs whose run() makes one run and returns
    {measurement: value}: each of repeat (by default REPEAT) rounds calls
    gc.collect() and then every run() once, in order. One row per case: its
    labels and, per measurement, {"median", "best", "runs"}, the best being
    the least."""
    got = [{} for _ in cases]
    for _ in range(repeat or REPEAT):
        gc.collect()
        for (_, run), runs in zip(cases, got):
            for name, value in run().items():
                runs.setdefault(name, []).append(value)
    return [dict(labels, **{name: {"median": statistics.median(values), "best": min(values),
                                   "runs": values} for name, values in runs.items()})
            for (labels, _), runs in zip(cases, got)]


def _columns(rows):
    """The label keys and the measurement keys of rows, in first-seen order."""
    labels, measures = {}, {}
    for row in rows:
        for key, value in row.items():
            (measures if isinstance(value, dict) else labels)[key] = None
    return labels, measures


def table(title, rows):
    """A markdown table of a section's rows under title: a column per label,
    then per measurement its median and, in brackets, its best."""
    labels, measures = _columns(rows)
    lines = [title, "", "| %s |" % " | ".join(list(labels) + list(measures)),
             "|---" * (len(labels) + len(measures)) + "|"]
    for row in rows:
        cells = ["" if row.get(key) is None else str(row[key]) for key in labels]
        cells += ["%.4g (%.4g)" % (row[m]["median"], row[m]["best"]) if m in row else ""
                  for m in measures]
        lines.append("| %s |" % " | ".join(cells))
    return "\n".join(lines)


def _seconds(fn, *args, **kwargs):
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _child_env():
    """This process's environment with the imported package's source first
    on PYTHONPATH, for a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(relaysense.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def startup_cases():
    """Fresh-interpreter import of the CLI: wall seconds, and the -X
    importtime total of another interpreter with its module count."""
    env = _child_env()
    cmd = [sys.executable, "-c", "import relaysense.cli"]

    def importtime():
        trace = subprocess.run(cmd[:1] + ["-X", "importtime"] + cmd[1:], env=env, check=True,
                               capture_output=True, text=True).stderr
        # "import time: <self us> | <cumulative us> | <module>", one line per module
        own = [int(m) for m in re.findall(r"^import time:\s+(\d+)\s*\|", trace, re.M)]
        return {"importtime_total_s": sum(own) * 1e-6, "modules": len(own)}

    return [({"run": "import relaysense.cli"},
             lambda: {"wall_s": _seconds(subprocess.run, cmd, env=env, check=True)}),
            ({"run": "-X importtime"}, importtime)]


def per_call(name, scale, fn, make):
    """run() for `drive`: one loop of fn(make()) calls, as {name: scale *
    seconds per call}; every make() of a loop runs before its clock starts.
    The loop's length is sized here, untimed: the first of 1, 4, 16, ...
    calls that takes at least 0.05 s."""
    def loop(n):
        args = [make() for _ in range(n)]
        t0 = time.perf_counter()
        for arg in args:
            fn(arg)
        return time.perf_counter() - t0

    loops = 1
    while loop(loops) < 0.05:
        loops *= 4
    return lambda: {name: scale * loop(loops) / loops}


def specfun_cases():
    """us per kernel call and per interference-law CDF call, and ms per
    detection_probability call on the fig3 ladder."""
    cases = []
    for name, fn, x in KERNELS:
        for size in (None,) + ARRAY_SIZES:
            arg = x if size is None else x * np.geomspace(0.1, 10.0, size)
            cases.append(({"kernel": name, "size": size},
                          per_call("us_per_call", 1e6, fn, lambda arg=arg: arg)))
    for n_pu in CDF_LADDER:
        scn = scenario_from_conf(ladder_conf(preset("fig3"), 0.4, n_pu))
        law = sensing.build_report_gain(scn.links, scn.primary, scn.policy).direct
        lam = scn.policy.threshold / scn.policy.noise_power
        cases.append(({"kernel": "InterferenceLaw.cdf", "size": n_pu},
                      per_call("us_per_call", 1e6, law.cdf, lambda lam=lam: lam)))
    for n_pu in LADDER:
        scn = scenario_from_conf(ladder_conf(preset("fig3"), 0.4, n_pu))
        cases.append(({"n_primary": n_pu}, per_call("ms_per_call", 1e3, lambda s: (
            sensing.detection_probability(s.policy.threshold, s.n_samples, s.links, s.primary,
                                          s.policy)), lambda scn=scn: scn)))
    return cases


def _chain_steps(conf):
    """(step, fn, make) of each data-phase step on the scenario of config
    tree conf, for `per_call`."""
    scn = scenario_from_conf(conf)
    links, primary, policy = scn.links, scn.primary, scn.policy
    fields = (links.d_src_relay, links.d_relay_dst, links.d_pu_src, links.d_pu_relay,
              links.d_pu_dst, links.alpha)
    model = scn.energy_model()
    pd = model.frame(scn.t_sense).p_detect
    # each call gets a sensing time the model has not seen yet
    fresh_t = (scn.t_sense * (1.0 + 1e-9 * k) for k in itertools.count(1))
    return (
        ("scenario_from_conf", scenario_from_conf, lambda: conf),
        ("LinkSet", lambda f: LinkSet(*f), lambda: fields),
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


def _optimiser_counts(conf):
    """{"frame_builds", "coeff_builds"} of one optimisation on a fresh model
    of config tree conf: the sensing times it built a frame for, and its
    `build_trans_coeffs` calls through `energy_opt`. Both are fixed by the
    search, so they read the same on any two trees that search alike."""
    scn = scenario_from_conf(conf)
    model, calls = scn.energy_model(), []
    real = energy_opt.build_trans_coeffs
    energy_opt.build_trans_coeffs = lambda *a: calls.append(a) or real(*a)
    try:
        energy_opt.optimize_sensing_time(model, scn.relay, scn.d_star)
    finally:
        energy_opt.build_trans_coeffs = real
    return {"frame_builds": len(model._frames), "coeff_builds": len(calls)}


def chain_cases():
    """us per call of each data-phase step on each of CHAIN_CELLS, with the
    optimiser's counts (`_optimiser_counts`) on its rows, of a parser build,
    and of each of CLI_COMMANDS through `cli.main` on default."""
    cases = []
    for name, conf, only in CHAIN_CELLS:
        conf = conf()
        relays = scenario_from_conf(conf).links.n_relays
        for step, fn, make in _chain_steps(conf):
            if only and step not in only:
                continue
            run = per_call("us_per_call", 1e6, fn, make)
            if step == "optimize_sensing_time":
                run = lambda run=run, counts=_optimiser_counts(conf): dict(run(), **counts)
            cases.append(({"preset": name, "relays": relays, "step": step}, run))
    cases.append(({"step": "build_parser"},
                  per_call("us_per_call", 1e6, lambda _: cli.build_parser(), lambda: None)))
    relays = scenario_from_conf(preset("default")).links.n_relays
    cases += [({"preset": "default", "relays": relays, "step": "cli.main " + command},
               per_call("us_per_call", 1e6, _cli_main, lambda command=command: command))
              for command in CLI_COMMANDS]
    return cases


def _cli_main(command):
    """cli.main(["--no-mc", command]) on default, its standard output
    captured; a command that fails raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["--no-mc", command])
    if rc != 0:
        raise RuntimeError("relaysense --no-mc %s exited with status %d" % (command, rc))


def _preset(name, trials):
    return scenario_from_conf(apply_overrides(preset(name), ["sim.trials=%d" % trials]))


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


def _labels(name, sampler, workers, trials):
    return {"preset": name, "sampler": sampler, "workers": workers, "trials": trials}


def held_key(fn, make=lambda: None):
    """run() for `drive`: empty the held slot, then time three consecutive
    calls fn(make()), make() untimed, and give the tape bytes held after
    the third."""
    def run():
        mcsim.clear_held()
        out = {}
        for k in (1, 2, 3):
            arg = make()
            out["call%d_s" % k] = _seconds(fn, arg)
            del arg
        tapes = mcsim._held[1] or {}
        out["tape_bytes"] = sum(x.nbytes for tape in tapes.values() for _, x in tape)
        return out

    return run


def _held_keys(trials, w):
    """(labels, fn, make) of each held key at trials draws and w workers,
    for `held_key`: the four stateless samplers on PRESETS, and
    mc_frame_energy on fig6 with a fresh model per call."""
    keys = [(_labels(name, sampler, w, trials), lambda _, fn=fn: fn(w), lambda: None)
            for name in PRESETS for sampler, fn in _one_shot(_preset(name, trials)).items()]
    scn = _preset("fig6", trials)
    keys.append((_labels("fig6", "mc_frame_energy", w, trials),
                 lambda model: mcsim.mc_frame_energy(model, scn.relay, scn.t_sense, trials, SEED,
                                                     workers=w), scn.energy_model))
    return keys


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


def draws_case(draws, trials, w):
    """run() for `drive` of a `_draw_plan`."""
    return lambda: {"draws_s": _seconds(draws, trials, w)}


def cold_warm(fn, scn, trials, w):
    """run() for `drive` of frame simulator fn on one fresh model, built
    untimed: its cold call with the slot emptied, then its warm call."""
    def run():
        mcsim.clear_held()
        model = scn.energy_model()
        cold = _seconds(fn, model, scn.relay, scn.t_sense, trials, w)
        # a new sensing time on the same model and relay: the slot holds
        # the draws, and only the comparisons move
        return {"cold_s": cold, "warm_s": _seconds(fn, model, scn.relay, 1.5 * scn.t_sense,
                                                   trials, w)}

    return run


def mc_cases(trials):
    """Every held key at 1 and 2 workers; per sampler and preset, its draws
    row and, for a frame simulator, its cold and warm calls; and the fig4
    outage with its draws row."""
    cases = [(labels, held_key(fn, make))
             for w in (1, 2) for labels, fn, make in _held_keys(trials, w)]
    for name in PRESETS:
        scn = _preset(name, trials)
        plans = {sampler: _draw_plan(lambda: fn(1)) for sampler, fn in _one_shot(scn).items()}
        plans.update({sampler: _draw_plan(lambda: fn(scn.energy_model(), scn.relay, scn.t_sense,
                                                     trials, 1))
                      for sampler, fn in FRAME_SIMS.items()})
        for w in (1, 2):
            cases += [(_labels(name, sampler, w, trials), draws_case(draws, trials, w))
                      for sampler, draws in plans.items()]
            cases += [(_labels(name, sampler, w, trials), cold_warm(fn, scn, trials, w))
                      for sampler, fn in FRAME_SIMS.items()]
    n = FIG4_OUTAGE_TRIALS
    outage = _one_shot(_preset("fig4", n))["mc_outage"]
    draws = _draw_plan(lambda: outage(1))
    cases += [(_labels("fig4", "mc_outage", w, n), run) for w in (1, 2)
              for run in (held_key(lambda _, w=w: outage(w)), draws_case(draws, n, w))]
    return cases


def figure_cases():
    """Per figure with and without Monte Carlo, then `validate` on default:
    wall seconds and the child's ru_maxrss in MB at FIGURE_TRIALS trials,
    with this process's own peak RSS, a floor under every child's."""
    env = _child_env()

    def run(command, mc):
        cmd = [sys.executable, "-m", "relaysense", "--trials", str(FIGURE_TRIALS),
               "--workers", str(FIGURE_WORKERS), "--out", os.devnull,
               *(() if mc else ("--no-mc",)), *command.split()]
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError("%s exited with status %d" % (" ".join(cmd), status))
        # ru_maxrss is in KiB on Linux
        return {"wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024.0,
                "bench_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    runs = [("figure " + name, mc) for name in FIGURES for mc in (True, False)]
    return [({"command": command, "mc": "yes" if mc else "no", "trials": FIGURE_TRIALS,
              "workers": FIGURE_WORKERS}, lambda command=command, mc=mc: run(command, mc))
            for command, mc in runs + [("validate", True)]]


def tier1_cases():
    """Wall seconds of the tier-1 suite in a fresh interpreter, under the
    caller's BLAS-thread settings; a failing suite raises."""
    env = _child_env()
    for var, value in _CALLER_BLAS.items():
        if value is None:
            env.pop(var, None)
        else:
            env[var] = value
    cmd = [sys.executable, *TIER1]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [({"run": "tier-1"}, lambda: {"wall_s": _seconds(
        subprocess.run, cmd, env=env, cwd=root, check=True, stdout=subprocess.DEVNULL)})]


def _tree_src(tree):
    """The src directory of checkout tree, whose relaysense a child imports."""
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isfile(os.path.join(src, "relaysense", "__init__.py")):
        raise SystemExit("%s has no src/relaysense package" % tree)
    return src


def _child_round(src, sections):
    """One round of sections, timed by this script in a fresh interpreter
    that imports relaysense from src: {"src_sha256", section: rows}."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        subprocess.run([sys.executable, os.path.abspath(__file__), "--repeat", "1",
                        "--out", path] + [a for s in sections for a in ("--only", s)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        with open(path) as fh:
            return json.load(fh)
    finally:
        os.remove(path)


def against(srcs, sections, repeat=None, run=_child_round):
    """Time sections on two trees, {"this": src, "against": src}: repeat (by
    default REPEAT) rounds, each of which runs one child per tree (run),
    this tree first in even rounds and the other first in odd ones, so that
    a drift in the host's speed reaches both alike. Each child must have
    imported its own tree (its `src_sha256`). Returns {section: paired
    rows} (`paired`)."""
    want = {tree: src_stats(os.path.join(src, "relaysense"))[1] for tree, src in srcs.items()}
    rounds = {tree: [] for tree in srcs}
    for k in range(repeat or REPEAT):
        for tree in (("this", "against") if k % 2 == 0 else ("against", "this")):
            got = run(srcs[tree], sections)
            if got["src_sha256"] != want[tree]:
                raise RuntimeError("the %s child imported another relaysense than %s"
                                   % (tree, srcs[tree]))
            rounds[tree].append(got)
    return {section: paired([r[section] for r in rounds["this"]],
                            [r[section] for r in rounds["against"]]) for section in sections}


def paired(this, other):
    """One row per case out of the per-round rows of each tree (lists of
    `drive` rows of one run each, round by round): its labels and, per
    measurement, each tree's median and runs, and the median over rounds of
    this tree's run over the other's, with a bootstrap 95% interval
    (`ratio_interval`)."""
    rows = []
    for k, first in enumerate(this[0]):
        labels = {key: v for key, v in first.items() if not isinstance(v, dict)}
        if any({key: r[k].get(key) for key in labels} != labels for r in other):
            raise RuntimeError("the trees' rows differ at %r" % labels)
        row = dict(labels)
        for name in (key for key in first if key not in labels):
            a = [r[k][name]["runs"][0] for r in this]
            b = [r[k][name]["runs"][0] for r in other]
            row[name] = {"this": {"median": statistics.median(a), "runs": a},
                         "against": {"median": statistics.median(b), "runs": b},
                         "ratio": ratio_interval(a, b)}
        rows.append(row)
    return rows


def ratio_interval(a, b, draws=BOOTSTRAP_DRAWS, seed=SEED):
    """{"median", "lo", "hi"}: the median of the paired ratios a[k] / b[k],
    and the 2.5% and 97.5% points of that median over draws resamples of
    the pairs with replacement, from a seeded generator."""
    ratios = [x / y for x, y in zip(a, b)]
    rng = random.Random(seed)
    meds = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(draws))
    return {"median": statistics.median(ratios), "lo": meds[int(0.025 * draws)],
            "hi": meds[int(0.975 * draws) - 1]}


def paired_table(title, rows):
    """A markdown table of paired rows under title: a column per label,
    then per measurement this tree's median, the other's, and the ratio
    with its interval."""
    labels, measures = _columns(rows)
    heads = [h for m in measures for h in (m, m + " against", "ratio [95%]")]
    lines = [title, "", "| %s |" % " | ".join(list(labels) + heads),
             "|---" * (len(labels) + len(heads)) + "|"]
    for row in rows:
        cells = ["" if row.get(key) is None else str(row[key]) for key in labels]
        for m in measures:
            if m in row:
                r = row[m]["ratio"]
                cells += ["%.4g" % row[m]["this"]["median"], "%.4g" % row[m]["against"]["median"],
                          "%.3f [%.3f, %.3f]" % (r["median"], r["lo"], r["hi"])]
            else:
                cells += ["", "", ""]
        lines.append("| %s |" % " | ".join(cells))
    return "\n".join(lines)


def _perfbench_run(tree, workload, seed, seconds, size):
    """{metric: value} of the end-to-end metrics of one `perfbench/run.py
    --trace 0` run of checkout tree on seed, which imports relaysense from
    its own tree; a run whose outputs are not all correct raises."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0", "--size", size]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True,
                         text=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    if last.get("correct") is not True or last.get("failed") != 0:
        raise RuntimeError("%s: correct %r, failed %r" % (" ".join(cmd), last.get("correct"),
                                                         last.get("failed")))
    return {name: m["value"] for name, m in last["metrics"].items()}


def _better():
    """{metric: "lower" or "higher"} of the end-to-end metrics that the
    repository's BENCHMARK.json declares, or {} without one."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    try:
        with open(path) as fh:
            return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    except OSError:
        return {}


def perfbench_pairs(trees, workload, seeds, seconds, size="full", run=_perfbench_run,
                    better=None):
    """Pairs of perfbench runs of workload on two trees, {"this": path,
    "against": path}: one pair per seed, both runs of a pair on its seed,
    this tree first in even pairs and the other first in odd ones. One row
    per end-to-end metric: both trees' medians and runs, the other tree's
    interquartile range, the pairs this tree wins (by `better`, by default
    BENCHMARK.json's directions, lower where it names none), and the median
    paired ratio, this tree over the other, with its bootstrap 95% interval
    (`ratio_interval`; None where the other tree read 0)."""
    better = _better() if better is None else better
    runs = {tree: [] for tree in trees}
    for k, seed in enumerate(seeds):
        for tree in (("this", "against") if k % 2 == 0 else ("against", "this")):
            runs[tree].append(run(trees[tree], workload, seed, seconds, size))
    rows = []
    for name in runs["this"][0]:
        a = [r[name] for r in runs["this"]]
        b = [r[name] for r in runs["against"]]
        q1, _, q3 = statistics.quantiles(b, n=4, method="inclusive") if len(b) > 1 \
            else (b[0],) * 3
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        rows.append({"metric": name,
                     "this": {"median": statistics.median(a), "runs": a},
                     "against": {"median": statistics.median(b), "iqr": q3 - q1, "runs": b},
                     "wins": sum(sign * x < sign * y for x, y in zip(a, b)), "pairs": len(a),
                     "ratio": ratio_interval(a, b) if all(b) else None})
    return rows


def perfbench_table(title, rows):
    """A markdown table of `perfbench_pairs` rows under title."""
    lines = [title, "", "| metric | this | against | against IQR | wins | ratio [95%] |",
             "|---|---|---|---|---|---|"]
    for row in rows:
        r = row["ratio"]
        lines.append("| %s | %.4g | %.4g | %.4g | %d of %d | %s |" % (
            row["metric"], row["this"]["median"], row["against"]["median"],
            row["against"]["iqr"], row["wins"], row["pairs"],
            "" if r is None else "%.3f [%.3f, %.3f]" % (r["median"], r["lo"], r["hi"])))
    return "\n".join(lines)


def src_stats(pkg=None):
    """({module file: line count}, SHA-256) of the .py files of package
    directory pkg, by default the imported relaysense's."""
    pkg = pkg or os.path.dirname(os.path.abspath(relaysense.__file__))
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
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None  # the package itself needs no scipy
    # the SIMD loops numpy dispatches to and the BLAS it calls both move
    # last bits; "found" is the dispatch targets this process may use, less
    # any that NPY_DISABLE_CPU_FEATURES switched off
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy,
            "numpy_simd": {"baseline": list(_umath.__cpu_baseline__),
                           "dispatch": list(_umath.__cpu_dispatch__),
                           "found": [f for f in _umath.__cpu_dispatch__
                                     if _umath.__cpu_features__[f]]},
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": {"caller": dict(_CALLER_BLAS), "pinned": 1}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=TRIALS, help="draws per sampler call in `mc`")
    ap.add_argument("--out", default="results/bench.json", help="output JSON path")
    ap.add_argument("--only", choices=SECTIONS, action="append",
                    help="measure only this section (repeatable); default: all")
    ap.add_argument("--repeat", type=int, default=REPEAT,
                    help="rounds per section; with --against, rounds of one child per tree")
    ap.add_argument("--against", metavar="DIR",
                    help="a second checkout: time the in-process sections (%s) on it and on "
                         "this tree in alternated child processes" % ", ".join(IN_PROCESS))
    ap.add_argument("--perfbench", metavar="WORKLOAD",
                    help="with --against: alternate perfbench/run.py runs of WORKLOAD "
                         "between this tree and DIR instead of timing sections")
    ap.add_argument("--pairs", type=int, default=10,
                    help="with --perfbench: runs per tree, one pair per fresh seed")
    ap.add_argument("--seconds", type=float, default=PERFBENCH_SECONDS,
                    help="with --perfbench: each run's --seconds")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="with --perfbench: each run's --size")
    args = ap.parse_args(argv)
    if args.trials < 2:
        ap.error("need --trials >= 2")
    if args.repeat < 1:
        ap.error("need --repeat >= 1")
    chosen = args.only or SECTIONS
    if args.perfbench and not args.against:
        ap.error("--perfbench needs --against DIR")
    if args.perfbench and (args.only or args.pairs < 1):
        ap.error("--perfbench takes no --only, and needs --pairs >= 1")
    if args.against and not args.perfbench and not set(chosen) <= set(IN_PROCESS):
        ap.error("--against times only the in-process sections: give --only %s"
                 % " or --only ".join(IN_PROCESS))

    module_loc, sha = src_stats()
    loc = sum(module_loc.values())
    doc = {"trials": args.trials, "repeat": args.repeat, "seed": SEED, "src_loc": loc,
           "src_module_loc": module_loc, "src_sha256": sha, "host": host()}
    out = []
    if args.perfbench:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        other = os.path.dirname(_tree_src(args.against))
        seeds = random.SystemRandom().sample(range(1, 1 << 31), args.pairs)
        rows = perfbench_pairs({"this": root, "against": other}, args.perfbench, seeds,
                               args.seconds, args.size)
        doc["perfbench"] = {"workload": args.perfbench, "seconds": args.seconds,
                            "size": args.size, "seeds": seeds, "against": other, "rows": rows}
        out.append(perfbench_table(
            "perfbench `%s`, %d alternated pairs of `--seconds %g --size %s --trace 0` runs, "
            "this tree then %s, medians" % (args.perfbench, args.pairs, args.seconds, args.size,
                                          args.against), rows))
    elif args.against:
        other_loc, other_sha = src_stats(os.path.join(_tree_src(args.against), "relaysense"))
        doc["against"] = {"src_loc": sum(other_loc.values()), "src_module_loc": other_loc,
                          "src_sha256": other_sha}
        this = os.path.dirname(os.path.dirname(os.path.abspath(relaysense.__file__)))
        sections = [section for section in SECTIONS if section in chosen]
        got = against({"this": this, "against": _tree_src(args.against)}, sections,
                      args.repeat)
        for section in sections:
            doc[section] = got[section]
            out.append(paired_table("`%s`, medians of %d alternated rounds, this tree then %s"
                                    % (section, args.repeat, args.against), got[section]))
    else:
        # start-up first, before this process has warmed any file cache
        # further; the figures before any section that grows this process,
        # as a child's ru_maxrss counts the memory it was forked with; and
        # held before mc's 2^20-draw calls have grown this process's heap
        cases = {"startup": startup_cases, "figures": figure_cases, "tier1": tier1_cases,
                 "held": lambda: [(labels, held_key(fn, make))
                                  for labels, fn, make in _held_keys(HELD_TRIALS, 1)],
                 "specfun": specfun_cases, "chain": chain_cases,
                 "mc": lambda: mc_cases(args.trials)}
        for section in SECTIONS:
            if section in chosen:
                doc[section] = drive(cases[section](), args.repeat)
                out.append(table("`%s`, median (best) of %d runs" % (section, args.repeat),
                                 doc[section]))
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
