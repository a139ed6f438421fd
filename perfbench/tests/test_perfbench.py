"""Tests of the benchmark itself:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import struct
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


# --- the contract ------------------------------------------------------------------------

def test_spec_matches_the_metrics_the_runner_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    res = _run_bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                     "--trace", trace, "--size", "tiny")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    assert last["failed"] == sum(detail["failed_ops"].values())
    assert last["correct"] and last["failed"] == 0, detail["failures"]
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in last["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in last["metrics"].values())
    if trace == "0":
        assert all(last["metrics"][m["name"]]["value"] > 0 for m in spec)
    else:
        for layer in tracing.LAYERS:
            assert "%s.self_s" % layer in last["metrics"]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = _run_bench("--workload", "geometry-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


# --- output checks ---------------------------------------------------------------------------

def _ops(records_by_name):
    def op(recs):
        def run_op(marks):
            if isinstance(recs, Exception):
                raise recs
            return recs
        return run_op
    return [workloads.Op(name, op(recs)) for name, recs in records_by_name.items()]


def test_corrupted_outputs_count_as_failed_operations():
    probe = tracing.Probe()
    ops = _ops({
        "good": [workloads.prob("p", 0.25)],
        "prob_above_one": [workloads.prob("p", 1.5)],
        "nan": [workloads.value("e", math.nan)],
        "raises": ValueError("boom"),
        "mc_miss": [("mc", "p_mc", 0.30, 0.01, 0.25, 0.0, 1.0, None)],
    })
    p = run.Pass(ops, probe, False)
    p.check(checks)
    assert sorted(name for name, _ in p.failures) == [
        "mc_miss", "nan", "prob_above_one", "raises"]
    e2e = run.end_to_end([p], 0.5, len(p.outputs), len(p.failures))
    assert e2e["pass_ratio"] == pytest.approx(1 / 5)


def test_degenerate_monte_carlo_checks_are_counted_not_passed():
    recs = [("mc", "saturated", 1.0, 0.0, 0.999, 0.0, 1.0, None),
            ("mc", "zero_hits", 0.0, 1e-3, 1e-4, 0.0, 1.0, None),
            ("mc", "fine", 0.5, 0.01, 0.5, 0.0, 1.0, None)]
    failures, degenerate = checks.check_records(recs)
    assert failures == [] and degenerate == 2


def test_one_flipped_monte_carlo_bit_fails_the_reference_check():
    wl = workloads.Workload("geometry-sweep", "tiny", None)
    op = wl.ops(None, 0)[0]
    recs = op.run({})
    ref = checks.to_reference(recs)
    assert checks.compare_reference(recs, ref) == []
    kind, label, mean, se, ana, lo, hi, z = recs[1]
    assert kind == "mc"
    bits = struct.unpack("<q", struct.pack("<d", mean))[0] ^ 1
    flipped = struct.unpack("<d", struct.pack("<q", bits))[0]
    bad = [recs[0], (kind, label, flipped, se, ana, lo, hi, z)]
    assert checks.compare_reference(bad, ref)
    nudged = [("value", recs[0][1], recs[0][2] * (1 + 1e-12), 0.0, 1.0), recs[1]]
    assert checks.compare_reference(nudged, ref) == []


def test_cli_text_comparison_is_exact_for_monte_carlo_only():
    ref = ("p_detect_analytic = 0.990094431  (samples=200, threshold=1.58489e-13 W)\n"
           "p_detect_mc       = 0.990648553 +/- 0.000562  (z=+0.99)\n")
    last_digit = ref.replace("0.990094431", "0.990094432")
    assert checks.compare_cli_text("detect", last_digit, ref) == []
    mc_digit = ref.replace("0.990648553", "0.990648554")
    assert checks.compare_cli_text("detect", mc_digit, ref)
    far = ref.replace("0.990094431", "0.990194431")
    assert checks.compare_cli_text("detect", far, ref)


def test_cli_output_range_checks():
    bad = ("cli", "outage", 0, "p_outage_analytic = -2.2e-16  (rho=0.75, gamma_th=1e-16 W)\n"
           "p_outage_mc       = 0 +/- 3.81e-06  (z=-0.00)\n", [])
    failures, degenerate = checks.check_records([bad])
    assert len(failures) == 1 and "-2.2e-16" in failures[0] and degenerate == 1
    exit_one = ("cli", "validate", 1, "validation FAILED (worst |z| = 5.00 > 4.0)\n", [])
    assert checks.check_records([exit_one])[0]


# link scale factor at which each left-out command shows its defect
DEFECT_FACTORS = {("fig6", "validate"): 1.0, ("fig8", "validate"): 1.0,
                  ("fig6", "outage"): 1.0001, ("fig8", "outage"): 0.999911}


@pytest.mark.xfail(strict=True, reason="known library defect; when this passes, "
                                       "put the command back into cli-queries")
@pytest.mark.parametrize("name,command", workloads.KNOWN_DEFECTS)
def test_commands_left_out_of_cli_queries_still_fail(name, command, tmp_path):
    ini = workloads.write_presets(str(tmp_path), [name])[name]
    overrides = workloads._link_overrides(name, DEFECT_FACTORS[(name, command)])
    argv = workloads.cli_argv(ini, workloads.mcsim.CHUNK, 1, overrides, command)
    try:
        recs = workloads._cli_command(argv)({})
    except Exception as exc:
        pytest.fail("%s raised %s" % (command, exc))
    assert checks.check_records(recs)[0] == []


# --- host speed ------------------------------------------------------------------------------

def test_times_are_scaled_by_the_nearby_kernel_samples():
    ref = run.KERNEL_REF_S
    speed = run.HostSpeed()
    speed.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    speed.secs = [ref, ref, ref, 2 * ref, 2 * ref]
    assert speed.scale(0.5) == pytest.approx(1.0)
    assert speed.scale(3.5) == pytest.approx(0.5)
    assert speed.due()
    speed.sample()
    assert not speed.due()


# --- tracing -------------------------------------------------------------------------------------

def test_layer_self_times_and_uncovered_time_add_up_to_the_wall():
    probe = tracing.Probe()
    wl = workloads.Workload("tsense-sweep", "tiny", None)
    p = run.Pass(wl.ops(3, 1), probe, True)
    fid, start, end, parent = p.spans
    stats, covered = tracing.layer_stats(probe.names, fid, start, end, parent, p.errors)
    assert set(stats) == set(tracing.LAYERS)
    self_total = sum(s for _, s, _ in stats.values())
    uncovered = p.wall - covered
    assert 0.0 <= uncovered < p.wall
    assert self_total + uncovered == pytest.approx(p.wall, rel=1e-9)
    assert all(s >= -1e-9 for _, s, _ in stats.values())
    assert stats["energy_opt"][0] > 0 and stats["mcsim"][0] > 0


def test_probe_restores_every_patched_function():
    from relaysense import energy_opt, fading, sensing
    before = (sensing.activity_mixture, fading.activity_mixture,
              energy_opt.EnergyModel.__init__)
    probe = tracing.Probe()
    probe.install(True)
    assert sensing.activity_mixture is fading.activity_mixture
    assert sensing.activity_mixture is not before[0]
    probe.uninstall()
    assert (sensing.activity_mixture, fading.activity_mixture,
            energy_opt.EnergyModel.__init__) == before


def test_inputs_follow_the_seed():
    def factors(seed, k):
        return [op.name for op in workloads.tsense_sweep("tiny", seed, k)], \
            list(zip(range(5), workloads._factors(seed, k)))
    assert factors(4, 1) == factors(4, 1)
    assert factors(4, 1)[1] != factors(5, 1)[1]
    assert all(f == 1.0 for _, f in zip(range(5), workloads._factors(None, 0)))
