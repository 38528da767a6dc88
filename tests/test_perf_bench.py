"""Tests for repro.perf: the load benchmark, the optimization flags,
and the table-driven equivalence guard."""

import json
from functools import partial

import pytest

from repro.opt import (
    FLAG_NAMES,
    OPTIMIZATIONS,
    OptimizationFlags,
    optimizations_disabled,
)
from repro.perf import (
    bench_json,
    equivalence_check,
    run_bench,
    sweep_bench,
)
from repro.perf.determinism import bench_bytes, chaos_bytes

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
    assert FLAG_NAMES == ("dns_cache", "translation_cache", "sql_cache")
    assert OptimizationFlags.__slots__ == FLAG_NAMES


def test_retired_gc_isolation_flag_is_a_no_op():
    # bench/worker.py's gc-off ablation arm still disables it by name.
    with optimizations_disabled("gc_isolation") as flags:
        assert flags.as_dict() == dict.fromkeys(FLAG_NAMES, True)
    assert all(OPTIMIZATIONS.as_dict().values())


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


# ------------------------------------------------------ equivalence guard
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
    rows = [(name, partial(produce, *args),
             partial(produce, *args, caches=False))
            for name, produce, args in [
                ("bench", bench_bytes, (5, 11)),
                ("chaos-gateway-outage", chaos_bytes, ("gateway-outage", 11)),
                ("chaos-dns-blackout", chaos_bytes, ("dns-blackout", 11))]]
    verdict = equivalence_check(rows, users=5, seed=11)
    assert verdict == {
        "identical": True,
        "checks": {"bench": True, "chaos-gateway-outage": True,
                   "chaos-dns-blackout": True},
        "users": 5, "seed": 11}
    # The producers restore the flags they forced.
    assert all(OPTIMIZATIONS.as_dict().values())


def test_equivalence_check_names_a_divergent_row():
    verdict = equivalence_check([
        ("same", lambda: "a", lambda: "a"),
        ("planted", lambda: "a", lambda: "b"),
    ])
    assert verdict == {"identical": False,
                       "checks": {"same": True, "planted": False}}


def test_equivalence_check_runs_a_shared_producer_once():
    calls = []

    def produce(users, seed, fleet=0, run=1):
        calls.append((users, seed, fleet, run))
        return f"{users}/{seed}"

    verdict = equivalence_check([
        ("fleet-of-1", partial(produce, 20, 7, fleet=1),
         partial(produce, 20, 7)),
        # Same arguments as above, spelled with the default filled in.
        ("again", partial(produce, 20, 7, fleet=0),
         partial(produce, 20, 7, fleet=1)),
        ("repeat", partial(produce, 20, 7, fleet=3, run=1),
         partial(produce, 20, 7, fleet=3, run=2)),
    ])
    assert verdict["identical"] is True
    assert calls == [(20, 7, 1, 1), (20, 7, 0, 1), (20, 7, 3, 1),
                     (20, 7, 3, 2)]


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

