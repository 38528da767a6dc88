"""Tests for repro.perf: the load benchmark, the optimization flags,
and the caches-on/off determinism guard."""

import json

import pytest

from repro.opt import FLAG_NAMES, OPTIMIZATIONS, optimizations_disabled
from repro.perf import (
    bench_json,
    determinism_check,
    run_bench,
    sweep_bench,
)

SMALL = dict(users=5, seed=11, transactions_per_user=2, horizon=90.0)


# ------------------------------------------------------------- opt flags
def test_flags_default_on_and_context_restores():
    assert all(OPTIMIZATIONS.as_dict().values())
    with optimizations_disabled():
        assert not any(OPTIMIZATIONS.as_dict().values())
    assert all(OPTIMIZATIONS.as_dict().values())


def test_flags_partial_disable():
    with optimizations_disabled("dns_cache"):
        flags = OPTIMIZATIONS.as_dict()
        assert flags["dns_cache"] is False
        others = {k: v for k, v in flags.items() if k != "dns_cache"}
        assert all(others.values())
    assert OPTIMIZATIONS.dns_cache is True


def test_flags_reject_unknown_names():
    with pytest.raises(ValueError):
        with optimizations_disabled("hyperdrive"):
            pass
    assert all(OPTIMIZATIONS.as_dict().values())


def test_flag_catalogue_matches_slots():
    assert set(FLAG_NAMES) == {"dns_cache", "translation_cache", "sql_cache",
                               "gc_isolation"}


# ------------------------------------------------------------- the bench
def test_run_bench_report_shape_and_health():
    report = run_bench(**SMALL)
    det = report["deterministic"]
    assert det["users"] == SMALL["users"]
    assert det["completed"] == SMALL["users"] * SMALL["transactions_per_user"]
    assert det["success_vs_offered"] >= 0.9
    # success_rate (succeeded/completed) was removed from the bench: it
    # hid stranded work; success_vs_offered is the honest replacement.
    assert "success_rate" not in det
    assert det["kernel_events"] > 0
    assert det["virtual_seconds"] == SMALL["horizon"]
    # The tracer-backed layer breakdown covers the whole path (deepest
    # span wins, so layers fully covered by children may not appear).
    assert {"wireless", "middleware", "wired", "db"} <= set(det["layers"])
    measured = report["measured"]
    assert measured["wall_seconds"] > 0
    assert measured["events_per_sec"] > 0
    assert report["optimizations"] == OPTIMIZATIONS.as_dict()


def test_run_bench_rejects_bad_parameters():
    with pytest.raises(ValueError):
        run_bench(users=0)
    with pytest.raises(ValueError):
        run_bench(users=1, transactions_per_user=0)


def test_bench_deterministic_section_reproducible():
    first = run_bench(**SMALL)
    second = run_bench(**SMALL)
    assert json.dumps(first["deterministic"], sort_keys=True) == \
        json.dumps(second["deterministic"], sort_keys=True)


def test_bench_json_is_canonical():
    report = run_bench(**SMALL)
    text = bench_json(report)
    assert json.loads(text) == report
    assert text == bench_json(json.loads(text))


# ------------------------------------------------- determinism A/B guard
def test_caches_on_and_off_give_identical_bench_results():
    """The tentpole invariant: every optimization is transparent."""
    cached = run_bench(**SMALL)
    with optimizations_disabled():
        uncached = run_bench(**SMALL)
    assert json.dumps(cached["deterministic"], sort_keys=True) == \
        json.dumps(uncached["deterministic"], sort_keys=True)
    # The runs really did take different code paths.
    assert cached["optimizations"] != uncached["optimizations"]


def test_determinism_check_verdict():
    verdict = determinism_check(users=5, seed=11)
    assert verdict["identical"] is True
    assert set(verdict["checks"]) == {
        "bench", "chaos-gateway-outage", "chaos-dns-blackout"}
    assert all(verdict["checks"].values())
    # The guard restores the flags it toggled.
    assert all(OPTIMIZATIONS.as_dict().values())


# ----------------------------------------------------------------- sweep
def test_sweep_bench_curve_shape():
    sweep = sweep_bench([3, 1], seed=11, transactions_per_user=2,
                        horizon=90.0)
    det = sweep["deterministic"]
    users = [point["users"] for point in det["points"]]
    assert users == [1, 3]  # sorted, deduplicated
    for point in det["points"]:
        assert point["offered_tps"] > 0
        assert 0.0 <= point["goodput_tps"] <= point["offered_tps"] + 1e-9
        assert point["kernel_events"] > 0
    measured = [point["users"] for point in sweep["measured"]["points"]]
    assert measured == users


def test_sweep_bench_rejects_empty():
    with pytest.raises(ValueError):
        sweep_bench([])

