"""Independent replications: replica identity, process count, intervals.

The contract under test (DESIGN §15): a replicated run is R independent
runs at consecutive seeds.  Replica k is exactly the report a direct
``run_bench`` / ``run_chaos`` call at ``seed + k`` returns, whatever the
number of processes that hosted it, and the summary's 95% half-width is
the Student-t interval over the replicas' deterministic fields.
"""

import json
import math
import os
import statistics

import pytest

from repro.__main__ import main
from repro.faults import report_json, run_chaos
from repro.perf import bench_json, replicate, run_bench
from repro.perf.replicate import summarize, t_critical

# Small-but-real scenario kwargs: a handful of users keeps each replica
# well under a second.
BENCH = dict(users=8, transactions_per_user=3, horizon=90.0)
CHAOS = dict(scenario="storm", intensity=0.4, stations=4,
             transactions_per_station=3, horizon=90.0)


def _without_measured(report):
    """A bench report's bytes minus its host-measured section."""
    return bench_json({key: value for key, value in report.items()
                       if key != "measured"})


def _replicas_bytes(result):
    return [_without_measured(report)
            for report in result["replicas"].values()]


# ------------------------------------------------ replica == direct run
@pytest.mark.parametrize("users,seed", [(8, 7), (5, 11), (9, 23)])
def test_bench_replica_is_byte_identical_to_direct_run(users, seed):
    scenario = dict(BENCH, users=users)
    result = replicate(run_bench, 2, seed=seed, **scenario)
    assert list(result["replicas"]) == [str(seed), str(seed + 1)]
    for k, report in enumerate(result["replicas"].values()):
        direct = run_bench(seed=seed + k, **scenario)
        assert _without_measured(report) == _without_measured(direct)


def test_chaos_storm_replica_is_byte_identical_to_direct_run():
    result = replicate(run_chaos, 2, seed=3, **CHAOS)
    for k, report in enumerate(result["replicas"].values()):
        assert report_json(report) == report_json(
            run_chaos(seed=3 + k, **CHAOS))


def test_fleet_config_replicates_like_any_other():
    scenario = dict(BENCH, fleet=2)
    result = replicate(run_bench, 2, seed=7, **scenario)
    for k, report in enumerate(result["replicas"].values()):
        assert "fleet" in report["deterministic"]
        assert _without_measured(report) == _without_measured(
            run_bench(seed=7 + k, **scenario))


def test_replicas_are_keyed_by_consecutive_seeds():
    result = replicate(run_bench, 3, seed=41, users=2,
                       transactions_per_user=1, horizon=30.0, trace=False)
    assert list(result["replicas"]) == ["41", "42", "43"]
    assert [report["deterministic"]["seed"]
            for report in result["replicas"].values()] == [41, 42, 43]


@pytest.mark.parametrize("replications,seed", [(2, 7), (4, 7), (2, 31)])
def test_process_count_never_changes_the_answer(replications, seed,
                                                monkeypatch):
    results = {}
    for cpus in (1, replications):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        results[cpus] = replicate(run_bench, replications, seed=seed,
                                  **BENCH)
        assert results[cpus]["measured"]["processes"] == cpus
    one, many = results[1], results[replications]
    assert _replicas_bytes(one) == _replicas_bytes(many)
    assert json.dumps(one["summary"], sort_keys=True) \
        == json.dumps(many["summary"], sort_keys=True)


def test_summary_matches_replica_accounting():
    result = replicate(run_bench, 3, seed=7, **BENCH)
    dets = [report["deterministic"]
            for report in result["replicas"].values()]
    summary = result["summary"]
    assert sorted(summary) == ["completed", "latency_p50", "latency_p95",
                               "retries", "success_vs_offered"]
    assert all(stats["n"] == 3 for stats in summary.values())
    assert summary["completed"]["mean"] == round(
        statistics.fmean(det["completed"] for det in dets), 6)
    assert summary["success_vs_offered"]["mean"] == round(
        statistics.fmean(det["success_vs_offered"] for det in dets), 6)
    assert summary["latency_p95"]["mean"] == round(
        statistics.fmean(det["latency"]["p95"] for det in dets), 6)


# ------------------------------------------------------- one replication
def test_one_replication_is_the_plain_run():
    result = replicate(run_bench, 1, seed=7, **BENCH)
    (report,) = result["replicas"].values()
    assert _without_measured(report) == _without_measured(
        run_bench(seed=7, **BENCH))
    assert result["measured"]["processes"] == 1


def test_cli_replications_1_prints_the_plain_report(tmp_path):
    plain, once = tmp_path / "plain.json", tmp_path / "once.json"
    assert main(["chaos", "storm", "--seed", "11", "--json",
                 str(plain)]) == 0
    assert main(["chaos", "storm", "--seed", "11", "--replications", "1",
                 "--json", str(once)]) == 0
    assert plain.read_bytes() == once.read_bytes()


def test_cli_chaos_replications_report_seeds_and_interval(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["chaos", "storm", "--seed", "11", "--transactions", "3",
                 "--horizon", "90", "--replications", "3",
                 "--json", str(out)]) == 0
    result = json.loads(out.read_text())
    assert list(result["replicas"]) == ["11", "12", "13"]
    assert math.isfinite(result["summary"]["success_vs_offered"]["ci95"])


# ------------------------------------------------------------ intervals
def test_half_width_matches_hand_computed_value():
    summary = summarize([{"x": value} for value in (1, 2, 3, 4)])
    # t(0.975, 3) = 3.182446 from a printed t-table; s = sqrt(5/3).
    expected = 3.182446 * math.sqrt(5.0 / 3.0) / math.sqrt(4)
    assert summary["x"]["mean"] == 2.5
    assert summary["x"]["n"] == 4
    assert summary["x"]["ci95"] == pytest.approx(expected, abs=1e-6)


def test_half_width_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for df in (1, 2, 3, 4, 9, 30, 31, 200):
        assert t_critical(df) == pytest.approx(stats.t.ppf(0.975, df),
                                               rel=1e-12)
    values = [0.53, 0.61, 0.48, 0.57, 0.55]
    summary = summarize([{"x": value} for value in values])
    expected = (stats.t.ppf(0.975, len(values) - 1)
                * statistics.stdev(values) / math.sqrt(len(values)))
    assert summary["x"]["ci95"] == pytest.approx(expected, abs=1e-6)


def test_single_replica_reports_null_interval():
    summary = summarize([{"x": 0.5}])
    assert summary["x"] == {"mean": 0.5, "ci95": None, "n": 1}
    assert '"ci95": null' in json.dumps(summary)


def test_fewer_than_one_replication_raises():
    with pytest.raises(ValueError):
        replicate(run_bench, 0, seed=7, **BENCH)
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "storm", "--replications", "0"])
    assert excinfo.value.code == 2
