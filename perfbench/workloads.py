"""The benchmark's workloads as lists of operations.

An operation is one swept point: it builds its scenario from a config tree,
computes the closed form, then the Monte Carlo estimate, and returns its
outputs as records for ``checks``. A ``cli-queries`` operation is one
``relaysense.cli.main`` command run in this process.

Every pass of a workload issues the same grid. The reference pass
(``seed=None``) uses the stock geometry exactly, so its outputs can be
compared with ``reference.json``. A timed pass scales every link distance of
each operation by its own factor within ``1 +- JITTER``, drawn from the
workload seed and the pass number. Inputs therefore differ between passes and
seeds, so a memo keyed on exact inputs cannot carry over from one pass to the
next, while the amount of work and every check's outcome stay those of the
stock grid. The Monte Carlo seed is the preset's own, as in the CLI figures.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# operations call the library through module attributes, so that the
# probe in ``tracing`` sees every call
from relaysense import (cli, energy_opt, harvest, mcsim, scenario, sensing,
                        transmission)
from relaysense.scenario import apply_overrides, ladder_conf, preset, relay_ladder_conf

WORKLOADS = ("geometry-sweep", "tsense-sweep", "cli-queries")

# relative half-width of the per-operation distance scaling in timed passes
JITTER = 1e-4

# first-primary distance of the L = 1..12 ladder: detection at L = 12 is
# about 0.77 there, so the Monte Carlo check of the largest ladder can fail
LADDER_DISTANCE_KM = 0.48

# worker threads of the cli-queries commands; the other workloads use one
CLI_WORKERS = 2

# the figure presets cli-queries runs over; fig4 and fig7 are left out
# because preset() defines them as "default" and "fig6"
CLI_PRESETS = ("default", "fig3", "fig6", "fig8", "table1")
CLI_COMMANDS = ("validate", "optimize", "detect", "outage", "harvest", "energy")

# commands that fail on the current library and are therefore left out of
# cli-queries, whose operations must all pass: validate raises "clipped-gain
# residual has no sign change" in sensing.solve_saturation_gain on every
# geometry, and outage prints a p_outage_analytic of about -1e-15 on some
# geometries. The benchmark's tests pin both defects (strict xfail), so a fix
# shows up there and these commands can go back into the workload.
KNOWN_DEFECTS = (("fig6", "validate"), ("fig6", "outage"),
                 ("fig8", "validate"), ("fig8", "outage"))

SIZES = {
    "full": {
        "geo_trials": 1 << 15,
        "ts_trials": 1 << 14,
        "cli_trials": 4 * mcsim.CHUNK,
        "fig3_points": 15,
        "fig4_db": tuple(range(0, 31, 2)),
        "ladder": tuple(range(1, 13)),
        "fig6_points": 10,
        "tsense_points": 19,
        "table1_relays": (1, 2, 3, 4),
        "table1_primaries": (1, 2, 3, 4),
        "cli_presets": CLI_PRESETS,
    },
    # a smoke-test size: every code path and every metric, a fraction of the work
    "tiny": {
        "geo_trials": 1 << 11,
        "ts_trials": 1 << 11,
        "cli_trials": 2 * mcsim.CHUNK,
        "fig3_points": 2,
        "fig4_db": (0, 30),
        "ladder": (1, 4, 8, 12),
        "fig6_points": 2,
        "tsense_points": 2,
        "table1_relays": (1, 2, 3, 4),
        "table1_primaries": (1,),
        "cli_presets": ("default", "fig6"),
    },
}


# --- output records ---------------------------------------------------------

def value(label, x, lo=-np.inf, hi=np.inf):
    """A closed-form output that must be finite and lie in [lo, hi]."""
    return ("value", label, float(x), lo, hi)


def prob(label, x):
    return value(label, x, 0.0, 1.0)


def mc(label, est, analytic, lo=-np.inf, hi=np.inf):
    """A Monte Carlo estimate checked against its closed form."""
    return ("mc", label, float(est.mean), float(est.stderr), float(analytic), lo, hi, None)


def mc_prob(label, est, analytic):
    return mc(label, est, analytic, 0.0, 1.0)


@dataclass
class Op:
    """One operation: a stable name and a callable that returns its records.
    The callable takes a dict to which it may append named sub-timings (ms)."""

    name: str
    run: Callable[[dict], list]


# --- geometry jitter ----------------------------------------------------------

_DISTANCE_KEYS = ("d_src_relay", "d_relay_dst", "d_pu", "d_pu_src", "d_pu_dst")


def _scale_list(text, factor):
    return ", ".join("%.10g" % (float(p) * factor)
                     for p in text.replace(",", " ").split())


def scale_links(conf, factor):
    """Config tree with every link distance multiplied by factor."""
    if factor == 1.0:
        return conf
    out = {s: dict(kv) for s, kv in conf.items()}
    links = out["links"]
    for key in _DISTANCE_KEYS:
        if key in links:
            links[key] = _scale_list(links[key], factor)
    if "d_pu_relay" in links:
        links["d_pu_relay"] = "; ".join(_scale_list(row, factor)
                                        for row in links["d_pu_relay"].split(";"))
    return out


def _factors(seed, pass_index):
    """Endless per-operation scale factors; all 1 on the reference pass."""
    if seed is None:
        while True:
            yield 1.0
    rng = np.random.default_rng([int(seed), int(pass_index)])
    while True:
        yield 1.0 + JITTER * (2.0 * rng.random() - 1.0)


# --- geometry-sweep -------------------------------------------------------------

def _detect(scn):
    return sensing.detection_probability(scn.policy.threshold, scn.n_samples,
                                         scn.links, scn.primary, scn.policy)


def _fig3_detection(conf, trials):
    def run(marks):
        scn = scenario.scenario_from_conf(conf)
        pd = _detect(scn)
        est = mcsim.mc_detection(scn.links, scn.primary, scn.policy,
                                 scn.policy.threshold, scn.n_samples, trials,
                                 scn.seed, workers=1)
        return [prob("p_detect", pd), mc_prob("p_detect_mc", est, pd)]
    return run


def _fig4_outage(conf, trials):
    def run(marks):
        scn = scenario.scenario_from_conf(conf)
        pd = _detect(scn)
        p_out = transmission.outage_probability(scn.gamma_th, scn.links, scn.primary,
                                                scn.policy, pd, scn.rho)
        est = mcsim.mc_outage(scn.links, scn.primary, scn.policy, scn.gamma_th, pd,
                              scn.rho, trials, scn.seed, workers=1)
        return [prob("p_detect", pd), prob("p_outage", p_out),
                mc_prob("p_outage_mc", est, p_out)]
    return run


def _fig3_harvest(conf, trials):
    def run(marks):
        scn = scenario.scenario_from_conf(conf)
        pd = _detect(scn)
        rep = harvest.avg_harvested_power(scn.links, scn.primary, scn.policy,
                                          scn.relay, pd)
        est = mcsim.mc_harvest(scn.links, scn.primary, scn.policy, scn.relay, pd,
                               trials, scn.seed, workers=1)
        return [prob("p_detect", pd), value("harvest_mean_w", rep.mean_power, 0.0),
                value("harvest_usable_w", rep.usable_power, 0.0),
                mc("harvest_usable_mc_w", est, rep.usable_power, 0.0)]
    return run


def _ladder_detection(conf, n_pu, trials):
    def run(marks):
        scn = scenario.scenario_from_conf(conf)
        t0 = time.perf_counter()
        pd = _detect(scn)
        marks.setdefault("sensing.detect_ms.L%d" % n_pu, []).append(
            1e3 * (time.perf_counter() - t0))
        est = mcsim.mc_detection(scn.links, scn.primary, scn.policy,
                                 scn.policy.threshold, scn.n_samples, trials,
                                 scn.seed, workers=1)
        return [prob("p_detect", pd), mc_prob("p_detect_mc", est, pd)]
    return run


def geometry_sweep(size, seed, pass_index):
    sz = SIZES[size]
    trials = sz["geo_trials"]
    f = _factors(seed, pass_index)
    fig3, fig4 = preset("fig3"), preset("fig4")
    distances = [round(0.1 * (k + 1), 10) for k in range(sz["fig3_points"])]
    ops = []
    for n_pu in (1, 2, 3):
        for d in distances:
            c = scale_links(ladder_conf(fig3, d, n_pu), next(f))
            ops.append(Op("fig3/L%d/d%g" % (n_pu, d), _fig3_detection(c, trials)))
    for rho in (0.5, 0.9, 1.0):
        for db in sz["fig4_db"]:
            c = apply_overrides(fig4, ["policy.p_max=%d dB" % db, "csi.rho=%g" % rho])
            ops.append(Op("fig4/rho%g/p%ddB" % (rho, db),
                          _fig4_outage(scale_links(c, next(f)), trials)))
    for n_pu in (1, 2, 3):
        for d in distances:
            c = scale_links(ladder_conf(fig3, d, n_pu), next(f))
            ops.append(Op("harvest/L%d/d%g" % (n_pu, d), _fig3_harvest(c, trials)))
    for n_pu in sz["ladder"]:
        c = relay_ladder_conf(ladder_conf(fig3, LADDER_DISTANCE_KM, n_pu), 0.1, 0.1, 2)
        ops.append(Op("ladder/L%d" % n_pu,
                      _ladder_detection(scale_links(c, next(f)), n_pu, trials)))
    return ops


# --- tsense-sweep ---------------------------------------------------------------

def _fig6_energy(conf, trials):
    def run(marks):
        scn = scenario.scenario_from_conf(conf)
        model = scn.energy_model()
        e = energy_opt.total_energy(model, scn.relay, scn.t_sense)
        est = mcsim.mc_frame_energy(model, scn.relay, scn.t_sense, trials, scn.seed,
                                    workers=1)
        return [value("energy_j", e), mc("energy_mc_j", est, e)]
    return run


def _shared_model(conf):
    """Scenario and EnergyModel built by the first operation of a sub-sweep
    and reused by the rest, as one figure run reuses them."""
    state = {}

    def get():
        if not state:
            scn = scenario.scenario_from_conf(conf)
            state["scn"], state["model"] = scn, scn.energy_model()
        return state["scn"], state["model"]
    return get


def _fig7_energy(shared, t_s, trials):
    def run(marks):
        scn, model = shared()
        eh = energy_opt.total_energy(model, scn.relay, t_s)
        en = energy_opt.total_energy_nonharvesting(model, scn.relay, t_s)
        est_h = mcsim.mc_frame_energy(model, scn.relay, t_s, trials, scn.seed, workers=1)
        est_n = mcsim.mc_frame_energy(model, scn.relay, t_s, trials, scn.seed, workers=1,
                                      harvesting=False)
        return [value("energy_harv_j", eh), value("energy_noharv_j", en),
                mc("energy_harv_mc_j", est_h, eh), mc("energy_noharv_mc_j", est_n, en)]
    return run


def _fig8_ecg(shared, t_s, trials):
    def run(marks):
        scn, model = shared()
        val = energy_opt.ecg(model, scn.relay, t_s)
        est = mcsim.mc_ecg(model, scn.relay, t_s, trials, scn.seed, workers=1)
        return [value("ecg", val, 0.0), mc("ecg_mc", est, val, 0.0)]
    return run


def _table1_cell(conf, n_relays):
    def run(marks):
        scn = scenario.scenario_from_conf(conf)
        model = scn.energy_model()
        t0 = time.perf_counter()
        opt = energy_opt.optimize_sensing_time(model, scn.relay, scn.d_star)
        marks.setdefault("energy_opt.optimize_ms.M%d" % n_relays, []).append(
            1e3 * (time.perf_counter() - t0))
        return [value("t_sense_star_s", opt.t_sense, 0.0, model.t_listen),
                value("multiplier", opt.multiplier, 0.0),
                value("energy_j", opt.energy), value("data_bits", opt.data, 0.0)]
    return run


def tsense_sweep(size, seed, pass_index):
    sz = SIZES[size]
    trials = sz["ts_trials"]
    f = _factors(seed, pass_index)
    fig6 = preset("fig6")
    t_grid = [round(0.005 * (k + 1), 10) for k in range(sz["tsense_points"])]
    ops = []
    for n_pu in (1, 3):
        for k in range(sz["fig6_points"]):
            d = round(0.1 * (k + 1), 10)
            c = scale_links(ladder_conf(fig6, d, n_pu), next(f))
            ops.append(Op("fig6/L%d/d%g" % (n_pu, d), _fig6_energy(c, trials)))
    shared = _shared_model(scale_links(preset("fig7"), next(f)))
    for t_s in t_grid:
        ops.append(Op("fig7/t%g" % t_s, _fig7_energy(shared, t_s, trials)))
    fig8 = preset("fig8")
    for n_pu in (1, 2):
        shared = _shared_model(scale_links(ladder_conf(fig8, 0.5, n_pu), next(f)))
        for t_s in t_grid:
            ops.append(Op("fig8/L%d/t%g" % (n_pu, t_s), _fig8_ecg(shared, t_s, trials)))
    table1 = preset("table1")
    for n_relays in sz["table1_relays"]:
        for n_pu in sz["table1_primaries"]:
            c = relay_ladder_conf(ladder_conf(table1, 1.0, n_pu, 0.01),
                                  0.5, 0.5, n_relays, 0.005)
            ops.append(Op("table1/M%d/L%d" % (n_relays, n_pu),
                          _table1_cell(scale_links(c, next(f)), n_relays)))
    return ops


# --- cli-queries ----------------------------------------------------------------

def write_presets(workdir, names):
    """Write each named preset as an INI file; returns {name: path}."""
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for name in names:
        cp = configparser.ConfigParser()
        for section, entries in preset(name).items():
            cp[section] = entries
        path = os.path.join(workdir, "%s.ini" % name)
        with open(path, "w") as fh:
            cp.write(fh)
        paths[name] = path
    return paths


def run_cli(argv):
    """Run one CLI command in this process; returns (exit code, output),
    the output being what it printed to stdout and then to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def cli_argv(ini, trials, workers, overrides, command):
    argv = ["--config", ini, "--trials", str(trials), "--workers", str(workers)]
    for pair in overrides:
        argv += ["--set", pair]
    return argv + [command]


def _link_overrides(name, factor):
    if factor == 1.0:
        return []
    links = scale_links(preset(name), factor)["links"]
    return ["links.%s=%s" % (k, v) for k, v in sorted(links.items()) if k != "alpha"]


def _cli_command(argv):
    def run(marks):
        rc, text = run_cli(argv)
        return [("cli", argv[-1], rc, text, argv)]
    return run


def cli_queries(size, seed, pass_index, inis, workers=CLI_WORKERS):
    sz = SIZES[size]
    f = _factors(seed, pass_index)
    ops = []
    for name in sz["cli_presets"]:
        for command in CLI_COMMANDS:
            if (name, command) in KNOWN_DEFECTS:
                continue
            argv = cli_argv(inis[name], sz["cli_trials"], workers,
                            _link_overrides(name, next(f)), command)
            ops.append(Op("%s/%s" % (name, command), _cli_command(argv)))
    return ops


class Workload:
    """One workload at one size. Building it does the set-up a run pays
    once: the presets are parsed and, for cli-queries, written out."""

    def __init__(self, name, size, workdir):
        self.name = name
        self.size = size
        self.inis = None
        if name == "cli-queries":
            self.inis = write_presets(workdir, SIZES[size]["cli_presets"])

    @property
    def trials(self):
        key = {"geometry-sweep": "geo_trials", "tsense-sweep": "ts_trials",
               "cli-queries": "cli_trials"}[self.name]
        return SIZES[self.size][key]

    @property
    def workers(self):
        return CLI_WORKERS if self.name == "cli-queries" else 1

    def ops(self, seed, pass_index, workers=None):
        """Operation list of one pass; seed None gives the reference pass.
        workers overrides the thread count of cli-queries commands."""
        if self.name == "geometry-sweep":
            return geometry_sweep(self.size, seed, pass_index)
        if self.name == "tsense-sweep":
            return tsense_sweep(self.size, seed, pass_index)
        return cli_queries(self.size, seed, pass_index, self.inis,
                           workers or self.workers)
