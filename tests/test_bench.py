"""The timing driver of scripts/bench.py, run on fake cases that log their
calls and return fixed numbers: nothing here is timed."""
import importlib.util
import os
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
# what the environment held before the script pinned its BLAS threads
BLAS = {var: os.environ.get(var)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@pytest.fixture(scope="module")
def bench():
    """scripts/bench.py as a module, imported with the environment restored
    after it: the script sets its BLAS-thread variables on import, and a
    subprocess another test starts would inherit them."""
    saved = dict(os.environ)
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return module


def test_import_leaves_the_environment_alone(bench):
    assert {var: os.environ.get(var) for var in BLAS} == BLAS


def test_tier1_runs_the_suite_under_the_callers_blas_threads(bench, monkeypatch):
    # one run per round, in a fresh interpreter at the repository root, with
    # pytest's cache off and the BLAS variables as they were before the
    # script pinned them
    runs = []
    monkeypatch.setattr(bench.gc, "collect", lambda: None)
    monkeypatch.setattr(bench.subprocess, "run", lambda cmd, **kw: runs.append((cmd, kw)))
    monkeypatch.setattr(bench, "REPEAT", 2)
    (row,) = bench.drive(bench.tier1_cases())
    assert row["run"] == "tier-1" and len(row["wall_s"]["runs"]) == 2
    assert len(runs) == 2 and runs[0] == runs[1]
    cmd, kw = runs[0]
    assert cmd == [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                   "-p", "no:cacheprovider"]
    assert os.path.samefile(kw["cwd"], BENCH.parents[1]) and kw["check"]
    assert {var: kw["env"].get(var) for var in BLAS} == BLAS


def test_host_records_the_simd_targets_blas_and_threads(bench):
    # what moves last bits between hosts: numpy's SIMD loops, its BLAS and
    # the BLAS thread count; nothing here is timed
    host = bench.host()
    simd = host["numpy_simd"]
    assert set(simd) == {"baseline", "dispatch", "found"}
    assert simd["baseline"] and set(simd["found"]) <= set(simd["dispatch"])
    assert set(host["blas"]) == {"name", "version"} and host["blas"]["name"]
    assert host["blas_threads"] == {"caller": BLAS, "pinned": 1}


def _fake_cases(log):
    """Three cases: "a" and "c" return one measurement from a fixed run
    sequence, "b" two; every run logs its case's name."""
    a = iter([3.0, 1.0, 2.0, 5.0, 4.0, 7.0, 6.0])
    c = iter([10.0, 30.0, 20.0])

    def case(name, values):
        def run():
            log.append(name)
            return values()
        return run

    return [({"case": "a", "preset": "default"}, case("a", lambda: {"x_s": next(a)})),
            ({"case": "b"}, case("b", lambda: {"x_s": 2.0, "tape_bytes": len(log)})),
            ({"case": "c"}, case("c", lambda: {"y_s": next(c)}))]


def test_every_round_runs_every_case_once_in_order(bench, monkeypatch):
    log = []
    monkeypatch.setattr(bench.gc, "collect", lambda: log.append("gc"))
    monkeypatch.setattr(bench, "REPEAT", 3)
    bench.drive(_fake_cases(log))
    assert log == ["gc", "a", "b", "c"] * 3


def test_rows_give_the_median_best_and_runs_of_each_measurement(bench, monkeypatch):
    log = []
    monkeypatch.setattr(bench.gc, "collect", lambda: None)
    monkeypatch.setattr(bench, "REPEAT", 3)
    a, b, c = bench.drive(_fake_cases(log))
    assert a == {"case": "a", "preset": "default",
                 "x_s": {"median": 2.0, "best": 1.0, "runs": [3.0, 1.0, 2.0]}}
    # a case with two measurements gives an entry for each
    assert b == {"case": "b", "x_s": {"median": 2.0, "best": 2.0, "runs": [2.0] * 3},
                 "tape_bytes": {"median": 5, "best": 2, "runs": [2, 5, 8]}}
    assert c == {"case": "c", "y_s": {"median": 20.0, "best": 10.0,
                                      "runs": [10.0, 30.0, 20.0]}}


def test_seven_rounds(bench, monkeypatch):
    log = []
    monkeypatch.setattr(bench.gc, "collect", lambda: None)
    (row,) = bench.drive(_fake_cases(log)[:1])
    assert bench.REPEAT == 7 and row["x_s"]["runs"] == [3.0, 1.0, 2.0, 5.0, 4.0, 7.0, 6.0]
    assert (row["x_s"]["median"], row["x_s"]["best"]) == (4.0, 1.0)


def test_one_table_writes_every_row(bench, monkeypatch):
    monkeypatch.setattr(bench.gc, "collect", lambda: None)
    monkeypatch.setattr(bench, "REPEAT", 3)
    rows = bench.drive(_fake_cases([]))
    lines = bench.table("title", rows).splitlines()
    assert lines[:4] == ["title", "", "| case | preset | x_s | tape_bytes | y_s |",
                         "|---|---|---|---|---|"]
    assert lines[4:] == ["| a | default | 2 (1) |  |  |",
                         "| b |  | 2 (2) | 5 (2) |  |",
                         "| c |  |  |  | 20 (10) |"]


def _fake_children(log, values):
    """run(src, sections) for `against`: logs src and returns, as a child of
    that tree would, its src_sha256 and one `drive` row of one run per
    section, the next of values[src]."""
    left = {src: iter(v) for src, v in values.items()}

    def run(src, sections):
        log.append(src)
        x = next(left[src])
        return {"src_sha256": "sha:" + src,
                **{section: [{"preset": "fig3-L3", "step": "LinkSet",
                              "us_per_call": {"median": x, "best": x, "runs": [x]}}]
                   for section in sections}}

    return run


@pytest.fixture
def fake_trees(bench, monkeypatch):
    monkeypatch.setattr(bench, "src_stats",
                        lambda pkg=None: ({}, "sha:" + os.path.dirname(pkg)))
    return {"this": "new", "against": "old"}


def test_against_alternates_which_tree_runs_first(bench, fake_trees):
    log = []
    values = {"new": [1.0] * 5, "old": [2.0] * 5}
    bench.against(fake_trees, ["chain"], 5, run=_fake_children(log, values))
    assert log == ["new", "old", "old", "new", "new", "old", "old", "new", "new", "old"]


def test_against_pairs_each_round_and_gives_the_median_ratio(bench, fake_trees):
    values = {"new": [3.0, 1.0, 2.0, 8.0], "old": [4.0, 4.0, 2.0, 4.0]}
    got = bench.against(fake_trees, ["chain", "specfun"], 4,
                        run=_fake_children([], values))
    assert list(got) == ["chain", "specfun"]
    (row,) = got["chain"]
    assert {k: row[k] for k in ("preset", "step")} == {"preset": "fig3-L3", "step": "LinkSet"}
    cell = row["us_per_call"]
    assert cell["this"] == {"median": 2.5, "runs": [3.0, 1.0, 2.0, 8.0]}
    assert cell["against"] == {"median": 4.0, "runs": [4.0, 4.0, 2.0, 4.0]}
    # the paired ratios are 0.75, 0.25, 1 and 2: their median, not the
    # ratio of the medians (0.625)
    ratio = cell["ratio"]
    assert ratio["median"] == 0.875
    assert 0.25 <= ratio["lo"] <= ratio["median"] <= ratio["hi"] <= 2.0
    assert ratio == bench.ratio_interval([3.0, 1.0, 2.0, 8.0], [4.0, 4.0, 2.0, 4.0])


def test_ratio_interval_of_a_constant_ratio_is_that_ratio(bench):
    assert bench.ratio_interval([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) \
        == {"median": 0.5, "lo": 0.5, "hi": 0.5}


def test_ratio_interval_is_the_bootstrap_of_the_median(bench):
    # two pairs resample to medians of 1, 2 or 3, with 1 and 3 each about a
    # quarter of the draws
    got = bench.ratio_interval([1.0, 3.0], [1.0, 1.0], draws=400)
    assert got == {"median": 2.0, "lo": 1.0, "hi": 3.0}


def test_a_child_of_another_tree_is_refused(bench, fake_trees):
    def run(src, sections):
        return {"src_sha256": "sha:new", "chain": []}

    with pytest.raises(RuntimeError, match="the against child imported another relaysense"):
        bench.against(fake_trees, ["chain"], 2, run=run)


def _fake_perfbench(log, values):
    """run(tree, workload, seed, seconds, size) for `perfbench_pairs`: logs
    its arguments and returns, as a run of that tree would, the next of
    values[tree], a {metric: value} dict."""
    left = {tree: iter(v) for tree, v in values.items()}

    def run(tree, workload, seed, seconds, size):
        log.append((tree, workload, seed, seconds, size))
        return next(left[tree])

    return run


PERFBENCH_TREES = {"this": "new", "against": "old"}


def test_perfbench_pairs_alternate_and_share_each_seed(bench):
    log = []
    values = {tree: [{"wall_s": 1.0}] * 4 for tree in ("new", "old")}
    bench.perfbench_pairs(PERFBENCH_TREES, "tsense-sweep", [11, 12, 13, 14], 20.0, "tiny",
                          run=_fake_perfbench(log, values), better={})
    assert [(tree, seed) for tree, _, seed, _, _ in log] == [
        ("new", 11), ("old", 11), ("old", 12), ("new", 12),
        ("new", 13), ("old", 13), ("old", 14), ("new", 14)]
    assert {(w, s, z) for _, w, _, s, z in log} == {("tsense-sweep", 20.0, "tiny")}


def test_perfbench_rows_give_medians_iqr_wins_and_the_paired_ratio(bench):
    new = [3.0, 1.0, 2.0, 8.0, 2.0]
    old = [4.0, 4.0, 2.0, 4.0, 6.0]
    values = {"new": [{"analytic_s": x, "pass_ratio": 1.0} for x in new],
              "old": [{"analytic_s": x, "pass_ratio": y} for x, y in zip(old, (1, 1, 0.5, 1, 1))]}
    rows = bench.perfbench_pairs(PERFBENCH_TREES, "w", [1, 2, 3, 4, 5], 1.0,
                                 run=_fake_perfbench([], values),
                                 better={"analytic_s": "lower", "pass_ratio": "higher"})
    analytic, ratio = rows
    assert analytic["metric"] == "analytic_s" and analytic["pairs"] == 5
    assert analytic["this"] == {"median": 2.0, "runs": new}
    assert analytic["against"] == {"median": 4.0, "iqr": 0.0, "runs": old}
    # lower wins: 3 < 4, 1 < 4, 2 < 6; 2 == 2 is no win, 8 > 4 is a loss
    assert analytic["wins"] == 3
    assert analytic["ratio"] == bench.ratio_interval(new, old)
    # the paired ratios 0.75, 0.25, 1, 2 and 1/3
    assert analytic["ratio"]["median"] == 0.75
    # higher wins: only the pair where the other tree read 0.5
    assert ratio["wins"] == 1 and ratio["against"]["iqr"] == 0.0
    table = bench.perfbench_table("t", rows).splitlines()
    assert table[2] == "| metric | this | against | against IQR | wins | ratio [95%] |"
    assert table[4].startswith("| analytic_s | 2 | 4 | 0 | 3 of 5 | 0.750 [")


def test_perfbench_iqr_is_the_other_trees_inclusive_quartiles(bench):
    old = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    values = {"new": [{"x": 1.0}] * 9, "old": [{"x": v} for v in old]}
    (row,) = bench.perfbench_pairs(PERFBENCH_TREES, "w", list(range(9)), 1.0,
                                   run=_fake_perfbench([], values), better={})
    # quartiles 3 and 7 of 1..9
    assert row["against"]["iqr"] == 4.0 and row["wins"] == 8


def test_perfbench_ratio_is_none_where_the_other_tree_read_zero(bench):
    values = {"new": [{"mc_s": 0.0}] * 2, "old": [{"mc_s": 0.0}, {"mc_s": 1.0}]}
    (row,) = bench.perfbench_pairs(PERFBENCH_TREES, "w", [1, 2], 1.0,
                                   run=_fake_perfbench([], values), better={})
    assert row["ratio"] is None
    assert bench.perfbench_table("t", [row]).splitlines()[-1].endswith("| 1 of 2 |  |")


def test_perfbench_directions_come_from_benchmark_json(bench):
    better = bench._better()
    assert better["pass_ratio"] == "higher" and better["analytic_s"] == "lower"


def test_a_perfbench_run_that_is_not_correct_raises(bench, monkeypatch):
    class Done:
        stdout = 'a line\n{"correct": false, "failed": 2, "metrics": {}}\n'

    seen = []
    monkeypatch.setattr(bench.subprocess, "run", lambda cmd, **kw: seen.append((cmd, kw))
                        or Done())
    with pytest.raises(RuntimeError, match="correct False, failed 2"):
        bench._perfbench_run("/tree", "cli-queries", 7, 20.0, "full")
    cmd, kw = seen[0]
    assert cmd[1:] == ["/tree/perfbench/run.py", "--workload", "cli-queries", "--seed", "7",
                       "--seconds", "20.0", "--trace", "0", "--size", "full"]
    assert kw["cwd"] == "/tree" and "PYTHONPATH" not in kw["env"]


def test_a_correct_perfbench_run_gives_its_metric_values(bench, monkeypatch):
    class Done:
        stdout = ('{"detail": {}}\n{"correct": true, "failed": 0, "metrics": '
                  '{"wall_s": {"value": 0.5, "unit": "s"}}}\n')

    monkeypatch.setattr(bench.subprocess, "run", lambda cmd, **kw: Done())
    assert bench._perfbench_run("/tree", "w", 1, 1.0, "tiny") == {"wall_s": 0.5}


def test_optimiser_rows_count_frames_and_coefficient_builds(bench):
    # the stock table1 cells: the search builds 34 frames, one coefficient
    # build each, and puts the real builder back
    real = bench.energy_opt.build_trans_coeffs
    for n_relays, n_pu in ((1, 1), (2, 2), (4, 4)):
        assert bench._optimiser_counts(bench._table1_cell(n_relays, n_pu)) \
            == {"frame_builds": 34, "coeff_builds": 34}
    assert bench.energy_opt.build_trans_coeffs is real
    cells = {name: only for name, _, only in bench.CHAIN_CELLS}
    assert cells["table1-M1L1"] == cells["table1-M2L2"] \
        == ("EnergyModel", "EnergyModel.frame", "optimize_sensing_time")
