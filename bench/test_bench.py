"""Tests for the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import cProfile
import copy
import json
import os
import pstats
import shutil
import subprocess
import sys

import pytest

from bench import checks, runner
from bench.compare import compare_results
from bench.fold import ENTRY, classify, fold_stats, profile_stats
from bench.stats import iqr, verdict
from bench.worker import REF_LOOP_S, Clock

PKG = os.path.join(os.sep, "src", "repro")


def _bucket(filename):
    return classify(filename, PKG)


# ------------------------------------------------------------ folding
@pytest.mark.parametrize("filename,bucket", [
    ("/src/repro/sim/kernel.py", "sim.kernel"),
    ("/src/repro/sim/sched.py", "sim.sched"),
    ("/src/repro/sim/monitor.py", "sim.other"),
    ("/src/repro/net/tcp.py", "net.tcp"),
    ("/src/repro/net/mobile/tcp_snoop.py", "net.tcp"),
    ("/src/repro/net/mobile/mobileip.py", "net.other"),
    ("/src/repro/web/server.py", "web"),
    ("/src/repro/fleet/ring.py", "middleware"),
    ("/src/repro/faults/injectors.py", "resilience"),
    ("/src/repro/faults/chaos.py", "entry"),
    ("/src/repro/perf/loadgen.py", "entry"),
    ("/src/repro/opt.py", "entry"),
    ("/src/repro/__init__.py", "entry"),
    ("/usr/lib/python3.11/heapq.py", None),
    ("~", None),
])
def test_classify(filename, bucket):
    assert _bucket(filename) == bucket


def test_fold_charges_builtins_and_stdlib_to_the_calling_layer():
    kernel = ("/src/repro/sim/kernel.py", 1, "run")
    tcp = ("/src/repro/net/tcp.py", 1, "send")
    stdlib = ("/usr/lib/python3.11/heapq.py", 1, "merge")
    builtin = ("~", 0, "<built-in method builtins.len>")
    rootless = ("~", 0, "<built-in method gc.collect>")
    stats = {
        kernel: (1, 1, 2.0, 10.0, {}),
        tcp: (5, 5, 1.0, 3.0, {kernel: (5, 5, 1.0, 3.0)}),
        # len: 0.3 s of self time from tcp, 0.1 s from the stdlib helper
        builtin: (9, 9, 0.4, 0.4, {tcp: (6, 6, 0.3, 0.3),
                                   stdlib: (3, 3, 0.1, 0.1)}),
        # the helper itself is called from tcp (ct 1.5) and kernel (0.5)
        stdlib: (4, 4, 0.8, 0.9, {tcp: (3, 3, 0.6, 1.5),
                                  kernel: (1, 1, 0.2, 0.5)}),
        rootless: (1, 1, 0.5, 0.5, {}),
    }
    folded = fold_stats(stats, _bucket)
    assert folded[ENTRY] == pytest.approx(0.5)
    # stdlib self time splits by its own caller table (0.6 / 0.2); len's
    # 0.1 s from the helper climbs by cumulative time (1.5 : 0.5).
    assert folded["net.tcp"] == pytest.approx(1.0 + 0.3 + 0.6 + 0.075)
    assert folded["sim.kernel"] == pytest.approx(2.0 + 0.2 + 0.025)
    total_self = sum(entry[2] for entry in stats.values())
    assert sum(folded.values()) == pytest.approx(total_self)


def test_fold_charges_cycles_outside_the_package_to_the_entry_bucket():
    a = ("/usr/lib/python3.11/a.py", 1, "a")
    b = ("/usr/lib/python3.11/b.py", 1, "b")
    stats = {a: (1, 1, 1.0, 2.0, {b: (1, 1, 1.0, 2.0)}),
             b: (1, 1, 1.0, 2.0, {a: (1, 1, 1.0, 2.0)})}
    folded = fold_stats(stats, _bucket)
    assert folded == {ENTRY: pytest.approx(2.0)}


def test_fold_on_a_real_profile(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "sim").mkdir(parents=True)
    (pkg / "sim" / "kernel.py").write_text(
        "def work():\n"
        "    total = 0\n"
        "    for i in range(20000):\n"
        "        total += len(sorted([i, 3, 1]))\n"
        "    return total\n")
    namespace: dict = {}
    source = (pkg / "sim" / "kernel.py").read_text()
    exec(compile(source, str(pkg / "sim" / "kernel.py"), "exec"), namespace)
    profiler = cProfile.Profile()
    profiler.enable()
    namespace["work"]()
    profiler.disable()
    stats = profile_stats(profiler)
    folded = fold_stats(stats, lambda f: classify(f, str(pkg)))
    builtin_time = sum(entry[2] for func, entry in stats.items()
                       if func[0] == "~" and "sorted" in func[2])
    assert builtin_time > 0
    # sorted() and len() were called by sim/kernel.py, so their time is
    # charged there, not left with the builtins.
    assert folded["sim.kernel"] > builtin_time
    assert sum(folded.values()) == pytest.approx(
        sum(entry[2] for entry in stats.values()))


def test_profile_stats_keeps_functions_that_share_a_label():
    """Distinct functions with one (filename, line, name), as every
    dataclass-generated ``__init__`` has, keep their own entries; pstats
    keeps only one of them and drops the other's time."""
    source = "def work(n):\n    return sum(i * i for i in range(n))\n"
    first, second = {}, {}
    exec(compile(source, "<string>", "exec"), first)
    exec(compile(source, "<string>", "exec"), second)
    profiler = cProfile.Profile()
    profiler.enable()
    first["work"](20000)
    second["work"](20000)
    profiler.disable()
    stats = profile_stats(profiler)
    assert [row[1] for func, row in stats.items() if func[2] == "work"] == \
        [1, 1]
    assert len([func for func in pstats.Stats(profiler).stats
                if func[2] == "work"]) == 1


# ------------------------------------------------------------ calibration
def test_clock_cancels_host_speed():
    """A segment that ran at half speed, beside loops that also ran at
    half speed, counts the same reference seconds."""
    clock = Clock.__new__(Clock)
    clock.segments = [1.0, 2.0, 1.0]
    clock.loops = [REF_LOOP_S, REF_LOOP_S, 2 * REF_LOOP_S, 2 * REF_LOOP_S]
    # Segment 1 sits between loops 1 and 2 and takes the median of loops
    # 0-3 (1.5x); segment 2 takes loops 1-3 (2x).
    assert clock.ref_seconds() == pytest.approx(1.0 + 2.0 / 1.5 + 0.5)
    clock.loops = [2 * REF_LOOP_S] * 4
    clock.segments = [2.0, 2.0, 2.0]
    assert clock.ref_seconds() == pytest.approx(3.0)


# ------------------------------------------------------------ verdicts
def test_iqr_matches_statistics_quantiles():
    assert iqr([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5)
    assert iqr([3.0]) == 0.0


def test_verdict_regression():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    change = [11.5, 11.6, 11.4, 11.5, 11.55]
    assert verdict(base, change, "lower", 0.10)["verdict"] == "worse"
    # The same shift on a higher-is-better metric is a gain, but five
    # pairs are too few to claim one.
    assert verdict(base, change, "higher", 0.10)["verdict"] == "unchanged"


def test_verdict_unresolved_when_spread_exceeds_bound():
    base = [10.0, 13.0, 8.0, 12.5, 9.0]
    change = [10.5, 13.5, 8.5, 12.0, 9.6]
    assert verdict(base, change, "lower", 0.10)["verdict"] == "unresolved"
    # ...unless every run of the change beats every run of the base.
    better = [7.0, 7.5, 6.0, 7.9, 6.5]
    assert verdict(base, better, "lower", 0.10)["verdict"] != "unresolved"


def test_verdict_win_needs_nine_of_ten_pairs_and_median_beyond_spread():
    base = [10.0 + 0.01 * i for i in range(10)]
    change = [9.0 + 0.01 * i for i in range(10)]
    assert verdict(base, change, "lower", 0.10)["verdict"] == "better"
    # Two lost pairs: no claim, and no regression either.
    mixed = change[:8] + [10.5, 10.6]
    assert verdict(base, mixed, "lower", 0.10)["verdict"] == "unchanged"
    # Winning every pair by less than the base's own spread is no claim.
    close = [b - 0.001 for b in base]
    assert verdict(base, close, "lower", 0.10)["verdict"] == "unchanged"


def test_verdict_absolute_floor_and_deterministic_metrics():
    assert verdict([0.30] * 5, [0.34] * 5, "lower", 0.10,
                   bound_abs=0.05)["verdict"] == "unchanged"
    assert verdict([0.53] * 5, [0.50] * 5, "higher", 0.0)["verdict"] == \
        "worse"


def test_compare_rows_sorted_worst_first():
    table = {"wall_s": {"unit": "s", "better": "lower", "bound": 0.1}}

    def result(walls, digest):
        return {"seed": 7, "workloads": {"w": {
            "samples": {"wall_s": walls}, "det_digest": digest}}}

    rows = compare_results(result([10.0] * 5, "a"), result([12.0] * 5, "b"),
                           table)
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("wall_s", "worse"), ("det_digest", "differs")]


# ------------------------------------------------------------ checks
def _good_result():
    return {
        "seed": 7, "mode": "plain", "arm": "default", "det_digest": "x",
        "accounting": {"offered": 100, "started": 90, "admitted": 80,
                       "rejected": 10, "completed": 85, "succeeded": 70},
        "latency": {"p50": 1.0, "p95": 2.0, "samples": 400,
                    "p50_recomputed": 1.0, "p95_recomputed": 2.0},
    }


def test_checks_accept_a_consistent_report():
    traced = dict(_good_result(), mode="traced",
                  layers={"wireless": 3.0, "app": 1.5},
                  closed_latency_s=4.5)
    profiled = dict(_good_result(), mode="profiled", profile_wall_s=2.0,
                    profile={"sim.kernel": 1.5, "net.tcp": 0.495})
    assert checks.check_all([_good_result(), traced, profiled]) == []


@pytest.mark.parametrize("doctor,expect", [
    (lambda r: r["accounting"].update(started=120), "offered >= started"),
    (lambda r: r["accounting"].update(completed=95), "completed"),
    (lambda r: r["accounting"].update(rejected=9), "admitted + rejected"),
    (lambda r: r["latency"].update(p95=2.5), "latency p95"),
])
def test_checks_reject_a_doctored_report(doctor, expect):
    result = copy.deepcopy(_good_result())
    doctor(result)
    failures = checks.check_all([result])
    assert failures and expect in " ".join(failures)


def test_checks_reject_bad_layers_shares_and_digests():
    traced = dict(_good_result(), mode="traced", layers={"wireless": 3.0},
                  closed_latency_s=4.5)
    assert checks.check_layers(traced)
    profiled = dict(_good_result(), mode="profiled", profile_wall_s=2.0,
                    profile={"sim.kernel": 1.5})
    assert checks.check_host_shares(profiled)
    assert checks.check_digests([_good_result(),
                                 dict(_good_result(), det_digest="y")])
    # Runs at other seeds, as a replicated measure sample has, may differ.
    assert checks.check_digests([_good_result(),
                                 dict(_good_result(), seed=1007,
                                      det_digest="y")]) == []


def test_measure_runs_every_replica_seed_then_pads_setup_samples():
    specs = list(runner.measure_specs("chaos-storm", 7, seconds=0,
                                      trace=False))
    assert [(s["seed"], s["mode"]) for s in specs] == [
        (7, "plain"), (1007, "plain"), (2007, "plain"),
        (7, "setup"), (7, "setup")]


# ------------------------------------------------------------ contract
def test_spec_adds_only_what_benchmark_json_cannot_hold():
    bench = runner.load_json(runner.BENCHMARK_JSON)
    spec = runner.load_json(runner.SPEC_JSON)
    listed = {m["name"] for m in bench["end_to_end"]}
    assert not listed & set(spec["unlisted_end_to_end"])
    assert set(spec["bound_abs"]) <= listed
    # Every layer metric says which end-to-end metric it should move.
    e2e, _ = runner.metric_tables()
    assert list(spec["per_layer"]) == [m["name"] for m in bench["per_layer"]]
    for name, entry in spec["per_layer"].items():
        assert set(entry["moves"]) <= set(e2e), name


def test_metric_names_match_benchmark_json():
    """Every per-layer metric the runner emits is in BENCHMARK.json, and
    every end-to-end one is there or in bench/spec.json's short list of
    metrics that cannot gate across seeds."""
    bench = runner.load_json(runner.BENCHMARK_JSON)
    spec = runner.load_json(runner.SPEC_JSON)
    result = runner.run_set(list(runner.NAMES), seed=7, repeat=1,
                            trace=True, smoke=True)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    for name, entry in result["workloads"].items():
        assert list(entry["samples"]) == e2e + list(
            spec["unlisted_end_to_end"]), name
        assert set(entry["layers"]) == set(layer), name
        assert entry["failures"] == [], name


def test_measure_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload",
         "chaos-storm", "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=runner.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= runner.SETUP_SAMPLES
    bench = runner.load_json(runner.BENCHMARK_JSON)
    assert list(line["metrics"]) == [m["name"] for m in bench["end_to_end"]]


def test_measure_fails_without_the_simulator_source(tmp_path):
    shutil.copytree(runner.BENCH_DIR, tmp_path / "bench")
    shutil.copy(runner.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload",
         "gprs-light", "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout == ""
