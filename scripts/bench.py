#!/usr/bin/env python3
"""Time every Monte Carlo sampler and write a BENCH_<n>.json file.

    PYTHONPATH=src python3 scripts/bench.py --out BENCH_2.json
    PYTHONPATH=src python3 scripts/bench.py --trials 65536 --out results/bench.json

Each `mcsim.mc_*` sampler runs on the `default` and `fig7` presets at a fixed
seed, with 1 and 2 workers, `REPEAT` times; every time is reported per
2^20 draws. Each one-shot repeat starts with `mcsim`'s held slot emptied, so
it draws afresh. The four stateless samplers are also timed held: the third
consecutive call with one key, which replays the draws the second recorded
(the first two calls are not timed). The frame simulators
(`mc_frame_energy` with and without harvesting, `mc_ecg`) are timed twice:
memo-cold, the first call on a fresh `EnergyModel` (it draws and stores the
raw draws), and memo-warm, a later call at a new sensing time on the same
model (it redoes only the comparisons). Building the model is not timed.
The file also records the line count and SHA-256 of the imported package's
sources and the host. A markdown table of the same numbers goes to standard
output.

Only the Monte Carlo slice of the benchmark file is written here; the
end-to-end figure timings and the closed-form layers are not measured yet.
"""
import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time

# One BLAS thread, so the only parallelism is the samplers' own worker
# threads. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import relaysense  # noqa: E402
from relaysense import mcsim, sensing  # noqa: E402
from relaysense.scenario import apply_overrides, preset, scenario_from_conf  # noqa: E402

UNIT = 1 << 20
PRESETS = ("default", "fig7")
SEED = 1
REPEAT = 3


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
    """Time the third consecutive call of fn: it replays the second's draws."""
    mcsim.clear_held()
    fn()
    fn()
    return _timed(fn)


def measure(trials):
    rows = []

    def add(name, sampler, memo, workers, runs):
        per = [s * UNIT / trials for s in runs]
        rows.append({"preset": name, "sampler": sampler, "memo": memo, "workers": workers,
                     "s_per_2p20_median": statistics.median(per),
                     "s_per_2p20_min": min(per), "runs_s": runs})

    for name in PRESETS:
        scn = scenario_from_conf(apply_overrides(preset(name), ["sim.trials=%d" % trials]))
        for sampler, fn in _one_shot(scn).items():
            for w in (1, 2):
                add(name, sampler, None, w, [_fresh(lambda: fn(w)) for _ in range(REPEAT)])
                add(name, sampler, "held", w, [_replayed(lambda: fn(w)) for _ in range(REPEAT)])
        for sampler, fn in FRAME_SIMS.items():
            for w in (1, 2):
                cold, warm = [], []
                for r in range(REPEAT):
                    model = scn.energy_model()
                    cold.append(_fresh(lambda: fn(model, scn.relay, scn.t_sense, trials, w)))
                    # a new sensing time on the same model: only the comparisons move
                    t_warm = scn.t_sense * (1.5 + 0.25 * r)
                    warm.append(_timed(lambda: fn(model, scn.relay, t_warm, trials, w)))
                    del model
                add(name, sampler, "cold", w, cold)
                add(name, sampler, "warm", w, warm)
    return rows


def src_stats():
    """(line count, SHA-256) of the imported package's .py files."""
    pkg = os.path.dirname(os.path.abspath(relaysense.__file__))
    lines, digest = 0, hashlib.sha256()
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                text = fh.read()
            lines += text.count(b"\n")
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
            "scipy": scipy.__version__}


def table(rows):
    lines = ["| preset | sampler | memo | workers | s per 2^20 draws (median) | min |",
             "|---|---|---|---|---|---|"]
    for r in rows:
        lines.append("| %s | %s | %s | %d | %.4f | %.4f |"
                     % (r["preset"], r["sampler"], r["memo"] or "", r["workers"],
                        r["s_per_2p20_median"], r["s_per_2p20_min"]))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=UNIT, help="draws per sampler call")
    ap.add_argument("--out", default="BENCH_2.json", help="output JSON path")
    args = ap.parse_args(argv)
    if args.trials < 2:
        ap.error("need --trials >= 2")

    rows = measure(args.trials)
    loc, sha = src_stats()
    doc = {"trials": args.trials, "repeat": REPEAT, "seed": SEED, "unit_draws": UNIT,
           "src_loc": loc, "src_sha256": sha, "host": host(), "mc": rows}
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("Monte Carlo samplers, %d draws per call, best-of and median of %d "
          "(src/ %d lines)\n" % (args.trials, REPEAT, doc["src_loc"]))
    print(table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
