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
