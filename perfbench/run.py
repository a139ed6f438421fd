#!/usr/bin/env python3
"""relaysense benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload geometry-sweep --seed 3 --seconds 20 --trace 0

Run it from anywhere inside a source tree that has ``src/relaysense``; the
package is imported from there, nothing is installed. Each workload is a
closed loop with one client: the next operation starts when the previous one
returns. A run does, in order:

1. ``--trace 0`` only: set-up time, the median over fresh interpreters of the
   time until the first pass's operations are built (imports, preset parse);
   with ``--trace 0`` a fixed kernel is also timed about every 0.1 s, and
   every end-to-end time is scaled by the host speed it shows (``HostSpeed``);
2. the reference pass on the stock geometry, checked against
   ``reference.json`` (bit-identical Monte Carlo means);
3. timed passes for ``--seconds`` seconds. With ``--trace 1`` the first half
   runs untraced and the second half with every public function traced;
4. cli-queries only: the last pass replayed with one worker, which must
   print exactly what the two-worker pass printed.

Every operation's outputs are checked (see ``checks``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer ones
with ``--trace 1``. The line before it carries provenance and details.
Spans of traced passes are written to ``.perfbench/`` in the source tree.
``--write-reference`` regenerates ``reference.json`` for one workload and size.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# One BLAS thread: the library's own worker threads are the parallelism
# being measured, and idle OpenBLAS threads spinning on the other core add
# noise to every timing. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from tracing import LAYERS, MC_KINDS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_PROBES = {"full": 9, "tiny": 1}

# an operation latency tail needs this many samples beyond it
TAIL_BEYOND = 10

END_TO_END = (
    ("wall_s", "s"), ("analytic_s", "s"), ("mc_s", "s"),
    ("point_ms_p50", "ms"), ("point_ms_tail", "ms"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("pass_ratio", "ratio"),
)

PER_LAYER = tuple(
    [("%s.%s" % (layer, m), unit) for layer in LAYERS
     for m, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))]
    + [("fading.subsets", "count"), ("fading.mixture_distinct_ratio", "ratio"),
       ("specfun.elems", "count"), ("specfun.cf_elems", "count"),
       ("sensing.clipped_gain_evals", "count")]
    + [("sensing.detect_ms.L%d" % n, "ms") for n in (4, 8, 12)]
    + [("transmission.coeff_builds", "count"),
       ("transmission.coeff_distinct_ratio", "ratio"),
       ("energy_opt.objective_evals", "count"), ("energy_opt.model_builds", "count")]
    + [("energy_opt.optimize_ms.M%d" % m, "ms") for m in (1, 2, 3, 4)]
    + [("mcsim.%s.trials_per_s" % k, "1/s") for k in MC_KINDS]
    + [("mcsim.speedup_2w", "ratio"), ("mcsim.degenerate_checks", "count"),
       ("scenario.parses", "count"), ("trace.overhead_ratio", "ratio"),
       ("fail_ratio", "ratio")]
)

# per-layer counts that are the call count of one function
FUNCTION_COUNTS = {
    "sensing.clipped_gain_evals": "sensing.avg_clipped_gain",
    "transmission.coeff_builds": "transmission.build_trans_coeffs",
    "energy_opt.objective_evals": "energy_opt.total_energy",
    "energy_opt.model_builds": "energy_opt.EnergyModel",
    "scenario.parses": "scenario.scenario_from_conf",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--write-reference", action="store_true",
                    help="store the reference pass's outputs and exit")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# --- passes ------------------------------------------------------------------------

class Pass:
    """Timings and outputs of one pass over a workload's operations."""

    def __init__(self, ops, probe, trace, speed=None):
        self.latencies = []
        self.starts = []          # perf_counter at the start of each operation
        self.op_mc = []           # seconds inside mcsim.mc_* per operation
        self.outputs = []         # (op name, records or None, error or None)
        self.marks = {}
        probe.reset()
        probe.install(trace)
        t_start = time.perf_counter()
        cal_s = 0.0
        try:
            for op in ops:
                if speed is not None and speed.due():
                    cal_s += speed.sample()
                n_mc = len(probe.mc_calls)
                t0 = time.perf_counter()
                self.starts.append(t0)
                try:
                    recs, err = op.run(self.marks), None
                except Exception as exc:  # a raising operation is a failed one
                    recs, err = None, "%s: %s" % (type(exc).__name__, exc)
                self.latencies.append(time.perf_counter() - t0)
                self.op_mc.append(sum(dt for _, _, dt in probe.mc_calls[n_mc:]))
                self.outputs.append((op.name, recs, err))
            self.wall = time.perf_counter() - t_start - cal_s
        finally:
            probe.uninstall()
        if speed is not None:
            speed.sample()
        self.mc_s = probe.mc_seconds()
        self.mc_calls = list(probe.mc_calls)
        if trace:
            self.spans = probe.span_arrays()
            self.errors = dict(probe.errors)
            self.counters = dict(probe.counters)
            self.mixture_keys = list(probe.mixture_keys)
            self.coeff_keys = list(probe.coeff_keys)
        self.failures = []
        self.degenerate = 0

    def check(self, checks, reference=None):
        """Check every operation's outputs; against reference if given."""
        for name, recs, err in self.outputs:
            if err is not None:
                self.failures.append((name, err))
                continue
            msgs, degenerate = checks.check_records(recs)
            self.degenerate += degenerate
            if reference is not None:
                if name in reference:
                    msgs += checks.compare_reference(recs, reference[name])
                else:
                    msgs.append("no reference stored for this operation")
            if msgs:
                self.failures.append((name, "; ".join(msgs)))



# --- host speed ----------------------------------------------------------------------

# The host's speed switches between states about 1.5x apart, for anything from
# under a second to minutes, and a whole run can fall in one state. So every
# end-to-end time is scaled by the speed of a fixed kernel, timed next to the
# operations it scales: a time is reported as it would read on a host where the
# kernel takes KERNEL_REF_S, its time when run back to back on an idle 2-vCPU
# Intel Xeon VM. The kernel does not use relaysense, so a change to the
# library moves the scaled times by the same share as the raw ones.
KERNEL_REF_S = 0.0022

# a kernel sample is taken before an operation when this long has passed
# since the last one
SAMPLE_EVERY_S = 0.1

_KERNEL_X = np.linspace(0.05, 40.0, 2048)


def _kernel():
    """A fixed mix of interpreter and small-array numpy work, like the
    library's own."""
    acc = 0.0
    for k in range(15000):
        acc += (k & 7) * 0.5
    for _ in range(50):
        y = np.exp(-_KERNEL_X) * _KERNEL_X
        acc += float(np.sort(y)[-1] + np.log1p(y).sum())
    return acc


class HostSpeed:
    """Kernel timings taken through a run, and the scale they give a time."""

    def __init__(self):
        self.times = []           # perf_counter at the start of each sample
        self.secs = []            # kernel seconds of each sample

    def sample(self):
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.times.append(t0)
        self.secs.append(dt)
        return dt

    def due(self):
        return not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S

    def scale(self, t):
        """KERNEL_REF_S over the median kernel time of the two samples
        before and the two after time t."""
        k = bisect.bisect_right(self.times, t)
        return KERNEL_REF_S / statistics.median(self.secs[max(0, k - 2):k + 2])


def tail(latencies):
    lat = sorted(latencies)
    return lat[-(TAIL_BEYOND + 1)] if len(lat) > TAIL_BEYOND else lat[-1]


def timed_passes(wl, probe, seed, seconds, trace, first_index, speed=None):
    passes = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        ops = wl.ops(seed, first_index + len(passes))
        passes.append(Pass(ops, probe, trace, speed))
    return passes


def setup_seconds(args, probes, speed):
    """Median time from starting a fresh interpreter until it has built the
    first pass's operations, each probe scaled by the host speed around it."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    for _ in range(probes):
        for _ in range(3):
            speed.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % err.strip())
        for _ in range(2):
            speed.sample()
        times.append((t1 - t0) * speed.scale(t0))
    return statistics.median(times)


# --- provenance ----------------------------------------------------------------------

def provenance(args, wl):
    import numpy
    import scipy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    loc = 0
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                with open(os.path.join(dirpath, fn), "rb") as fh:
                    data = fh.read()
                digest.update(fn.encode() + b"\0" + data)
                loc += data.count(b"\n")
    return {
        "commit": commit, "src_sha256": digest.hexdigest(), "src_loc": loc,
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "trials": wl.trials, "workers": wl.workers, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# --- metrics -------------------------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(passes, setup_s, attempted, failed, speed=None):
    # Every pass runs the same operations in the same order, so each
    # operation has one sample per pass. Each sample is scaled by the host
    # speed at its start; an operation's time is the median of its scaled
    # samples over the run's passes.
    lat = np.array([p.latencies for p in passes])
    mc = np.array([p.op_mc for p in passes])
    if speed is not None:
        scale = np.array([[speed.scale(t) for t in p.starts] for p in passes])
        lat, mc = lat * scale, mc * scale
    typical = np.median(lat, axis=0)
    return {
        "wall_s": typical.sum(),
        "analytic_s": np.median(lat - mc, axis=0).sum(),
        "mc_s": np.median(mc, axis=0).sum(),
        "point_ms_p50": 1e3 * statistics.median(typical),
        "point_ms_tail": 1e3 * tail(typical),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - failed / attempted,
    }


def _distinct_ratio(keys):
    return len(set(keys)) / len(keys) if keys else 0.0


def per_layer(probe, plain, traced, speedup, attempted, failed):
    out = {}
    per_pass = []
    for p in traced:
        fid, start, end, parent = p.spans
        stats, _ = tracing.layer_stats(probe.names, fid, start, end, parent, p.errors)
        calls_by_fn = collections.Counter()
        for name, n in zip(probe.names, np.bincount(fid, minlength=len(probe.names))):
            calls_by_fn[name] += int(n)
        row = {}
        for layer, (calls, self_s, errors) in stats.items():
            row[layer + ".calls"] = calls
            row[layer + ".self_s"] = self_s
            row[layer + ".errors"] = errors
        row.update(p.counters)
        row["fading.mixture_distinct_ratio"] = _distinct_ratio(p.mixture_keys)
        row["transmission.coeff_distinct_ratio"] = _distinct_ratio(p.coeff_keys)
        for metric, fn in FUNCTION_COUNTS.items():
            row[metric] = calls_by_fn.get(fn, 0)
        per_pass.append(row)
    for key in per_pass[0]:
        out[key] = _median([row[key] for row in per_pass])

    for name, _ in PER_LAYER:
        if name.startswith(("sensing.detect_ms.", "energy_opt.optimize_ms.")):
            out[name] = _median([statistics.fmean(p.marks[name])
                                 for p in plain if name in p.marks])
    for kind in MC_KINDS:
        calls = [(n, dt) for p in plain for k, n, dt in p.mc_calls if k == kind]
        secs = sum(dt for _, dt in calls)
        out["mcsim.%s.trials_per_s" % kind] = sum(n for n, _ in calls) / secs if secs else 0.0
    out["mcsim.speedup_2w"] = speedup
    out["mcsim.degenerate_checks"] = _median([p.degenerate for p in plain + traced])
    out["trace.overhead_ratio"] = (_median([p.wall for p in traced])
                                   / _median([p.wall for p in plain]))
    out["fail_ratio"] = failed / attempted
    return out


# --- main ------------------------------------------------------------------------------------

def replay_one_worker(wl, probe, seed, index, last):
    """Replay pass number index, whose result is last, with one worker.
    Returns the replay, the commands whose output changed and the MC
    speed-up of two workers over one."""
    replay = Pass(wl.ops(seed, index, workers=1), probe, False)
    changed = []
    for (name, recs, err), (_, recs1, err1) in zip(last.outputs, replay.outputs):
        text2 = recs[0][3] if recs else err
        text1 = recs1[0][3] if recs1 else err1
        if text1 != text2:
            changed.append((name, "one-worker replay printed something else:\n%s\n"
                                  "two workers printed:\n%s" % (text1, text2)))
    return replay, changed, replay.mc_s / last.mc_s if last.mc_s else 0.0


def write_spans(workload, names, traced):
    os.makedirs(WORKDIR, exist_ok=True)
    arrays = {}
    for k, p in enumerate(traced):
        for key, arr in zip(("fid", "start", "end", "parent"), p.spans):
            arrays["pass%d_%s" % (k, key)] = arr
    np.savez_compressed(os.path.join(WORKDIR, "spans-%s.npz" % workload),
                        names=np.array(names), **arrays)


def _load_reference(size, workload):
    if not os.path.isfile(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(size, {}).get(workload)


def _write_reference(checks, size, workload, ref_pass):
    data = {}
    if os.path.isfile(REFERENCE):
        with open(REFERENCE) as fh:
            data = json.load(fh)
    data.setdefault(size, {})[workload] = {
        name: checks.to_reference(recs) for name, recs, _ in ref_pass.outputs
        if recs is not None}
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "relaysense", "__init__.py")):
        print("error: no relaysense sources under %s; run from a source tree"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    if args.probe_setup:
        workloads.Workload(args.workload, args.size, WORKDIR).ops(args.seed, 0)
        print("ready", flush=True)
        return 0

    # host speed samples scale the end-to-end times; traced runs report
    # per-layer times as measured
    speed = None if args.trace else HostSpeed()
    setup_s = setup_seconds(args, SETUP_PROBES[args.size], speed) if speed else None
    wl = workloads.Workload(args.workload, args.size, WORKDIR)
    probe = tracing.Probe()

    ref_pass = Pass(wl.ops(None, 0), probe, False)
    if args.write_reference:
        # outputs that fail their checks are stored too: the reference pins
        # what the program prints, and the checks still fail them every run
        ref_pass.check(checks)
        for name, msg in ref_pass.failures:
            print("FAIL %s: %s" % (name, msg), file=sys.stderr)
        _write_reference(checks, args.size, args.workload, ref_pass)
        print("wrote %d reference operations for %s/%s"
              % (sum(recs is not None for _, recs, _ in ref_pass.outputs),
                 args.size, args.workload))
        return 0
    reference = _load_reference(args.size, args.workload)
    if reference is None:
        print("error: reference.json has no %s/%s entry" % (args.size, args.workload),
              file=sys.stderr)
        return 2
    ref_pass.check(checks, reference)

    if args.trace:
        plain = timed_passes(wl, probe, args.seed, args.seconds / 2.0, False, 1)
        traced = timed_passes(wl, probe, args.seed, args.seconds / 2.0, True,
                              1 + len(plain))
    else:
        plain = timed_passes(wl, probe, args.seed, args.seconds, False, 1, speed)
        traced = []
    for p in plain + traced:
        p.check(checks)

    failures = [("reference pass: " + n, m) for n, m in ref_pass.failures]
    failures += [(n, m) for p in plain + traced for n, m in p.failures]
    attempted = sum(len(p.outputs) for p in [ref_pass] + plain + traced)
    detail = {"provenance": provenance(args, wl), "ops_per_pass": len(ref_pass.outputs),
              "pass_wall_s": [round(p.wall, 4) for p in plain],
              "traced_pass_wall_s": [round(p.wall, 4) for p in traced]}
    if speed is not None:
        detail["kernel_ms_p10_p50_p90"] = [
            round(1e3 * q, 4) for q in np.percentile(speed.secs, [10, 50, 90])]

    speedup = 0.0
    if args.workload == "cli-queries":
        replay, changed, speedup = replay_one_worker(wl, probe, args.seed, len(plain),
                                                    plain[-1])
        replay.check(checks)
        attempted += len(replay.outputs)
        failures += [("one-worker replay: " + n, m) for n, m in replay.failures]
        failures += changed

    failed = len(failures)
    n = len(ref_pass.latencies)
    detail["tail_percentile"] = (100.0 * (1.0 - TAIL_BEYOND / n) if n > TAIL_BEYOND
                                 else 100.0)
    detail["tail_samples_per_pass"] = n
    detail["failed_ops"] = dict(collections.Counter(name for name, _ in failures))
    detail["failures"] = ["%s: %s" % f for f in failures[:20]]

    if args.trace:
        values = per_layer(probe, plain, traced, speedup, attempted, failed)
        units = PER_LAYER
        write_spans(args.workload, probe.names, traced)
    else:
        values = end_to_end(plain, setup_s, attempted, failed, speed)
        units = END_TO_END

    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units}
    for name, unit in units:
        print("%-40s %16.6g %s" % (name, values[name], unit))
    for msg in detail["failures"]:
        print("FAIL %s" % msg)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
