"""Tests for repro.perf: the load benchmark, the optimization flags,
and the rows that hold the caches and the fleet wiring transparent."""

import json
import pathlib
from functools import partial

import pytest

from repro.opt import (
    FLAG_NAMES,
    OPTIMIZATIONS,
    OptimizationFlags,
    optimizations_disabled,
)
from repro.core.shoppers import canonical_json
from repro.faults.chaos import run_chaos
from repro.middleware.base import TRANSLATION_MEMO_SIZE
from repro.perf import run_bench, sweep_bench
from repro.web.server import ACCESS_LOG_SIZE

ROOT = pathlib.Path(__file__).parent.parent
SMALL = dict(users=5, seed=11, transactions_per_user=2, horizon=90.0)


# ------------------------------------------------------------- opt flags
def test_flags_default_on_and_context_restores():
    assert all(OPTIMIZATIONS.as_dict().values())
    with optimizations_disabled():
        assert not any(OPTIMIZATIONS.as_dict().values())
    assert all(OPTIMIZATIONS.as_dict().values())


def test_flags_partial_disable():
    with optimizations_disabled("sql_cache"):
        flags = OPTIMIZATIONS.as_dict()
        assert flags["sql_cache"] is False
        others = {k: v for k, v in flags.items() if k != "sql_cache"}
        assert all(others.values())
    assert OPTIMIZATIONS.sql_cache is True


def test_flags_reject_unknown_names():
    with pytest.raises(ValueError):
        with optimizations_disabled("hyperdrive"):
            pass
    assert all(OPTIMIZATIONS.as_dict().values())


def test_flag_catalogue_matches_slots():
    assert FLAG_NAMES == ("translation_cache", "sql_cache")
    assert OptimizationFlags.__slots__ == FLAG_NAMES


def test_retired_gc_isolation_flag_is_a_no_op():
    # bench/worker.py's gc-off ablation arm still disables it by name.
    with optimizations_disabled("gc_isolation") as flags:
        assert flags.as_dict() == dict.fromkeys(FLAG_NAMES, True)
    assert all(OPTIMIZATIONS.as_dict().values())


def test_retired_dns_cache_flag_is_a_no_op():
    # bench/worker.py's caches-off arm still disables it by name.
    with optimizations_disabled("dns_cache", "sql_cache") as flags:
        assert flags.as_dict() == {"translation_cache": True,
                                   "sql_cache": False}
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
    # No host timing: python -m bench is the one timer.
    assert sorted(report) == ["deterministic", "optimizations"]
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
    text = canonical_json(report)
    assert json.loads(text) == report
    assert text == canonical_json(json.loads(text))


# ------------------------------------------------------ transparency rows
# The hot-path caches (repro.opt) and the gateway-fleet wiring claim to
# be transparent: they change host work, never what the simulation
# computes.  Each row runs two arms and compares their canonical JSON
# byte for byte: bench rows the ``deterministic`` section, chaos rows
# the whole report.  The timed rows compare a caches-off run of a
# committed report's scenario with that report's bytes, which CI keeps
# current by ``cmp``-ing a fresh ``repro bench`` against them.

def bench_bytes(users, seed=7, transactions_per_user=3, horizon=120.0,
                fleet=0):
    report = run_bench(users=users, seed=seed, horizon=horizon,
                       transactions_per_user=transactions_per_user,
                       fleet=fleet)
    return canonical_json(report["deterministic"])


def chaos_bytes(scenario):
    return canonical_json(run_chaos(
        scenario=scenario, seed=7, intensity=0.6, stations=3,
        transactions_per_station=4, horizon=120.0))


def committed_bytes(name):
    return canonical_json(json.loads((ROOT / name).read_text())
                          ["deterministic"])


def committed_scenario_bytes(name):
    return bench_bytes(**json.loads((ROOT / name).read_text())["scenario"])


def caches_off(produce, *args, **kwargs):
    def run():
        with optimizations_disabled():
            return produce(*args, **kwargs)
    return run


@pytest.fixture(scope="module")
def single_gateway():
    """The 20-user single-gateway bench two rows compare against."""
    return bench_bytes(20)


# An arm is a callable, or the name of a fixture holding a shared run.
ROWS = [
    pytest.param(partial(committed_bytes, "BENCH_PERF_50.json"),
                 caches_off(committed_scenario_bytes, "BENCH_PERF_50.json"),
                 id="caches-bench-timed-50"),
    pytest.param(partial(committed_bytes, "BENCH_PERF.json"),
                 caches_off(committed_scenario_bytes, "BENCH_PERF.json"),
                 id="caches-bench-timed-500"),
    pytest.param("single_gateway", caches_off(bench_bytes, 20),
                 id="caches-bench"),
    pytest.param(partial(bench_bytes, **SMALL),
                 caches_off(bench_bytes, **SMALL),
                 id="caches-bench-small"),
    pytest.param(partial(chaos_bytes, "gateway-outage"),
                 caches_off(chaos_bytes, "gateway-outage"),
                 id="caches-chaos-gateway-outage"),
    pytest.param(partial(chaos_bytes, "dns-blackout"),
                 caches_off(chaos_bytes, "dns-blackout"),
                 id="caches-chaos-dns-blackout"),
    pytest.param(partial(bench_bytes, 20, fleet=1), "single_gateway",
                 id="fleet-of-1-vs-single"),
    pytest.param(partial(bench_bytes, 20, fleet=3),
                 partial(bench_bytes, 20, fleet=3),
                 id="fleet-of-3-repeat"),
]


@pytest.mark.parametrize("arm_a, arm_b", ROWS)
def test_transparent_row_is_byte_identical(arm_a, arm_b, request):
    def output(arm):
        if isinstance(arm, str):
            return request.getfixturevalue(arm)
        return arm()
    assert output(arm_a) == output(arm_b)
    # Each arm restores the cache flags it changed.
    assert all(OPTIMIZATIONS.as_dict().values())


def test_a_planted_divergence_fails_its_row():
    with pytest.raises(AssertionError):
        test_transparent_row_is_byte_identical(lambda: "a", lambda: "b",
                                               request=None)


# ------------------------------------------------------------- retention
def test_bench_keeps_no_per_request_state():
    """Host and gateway keep nothing per request that nobody reads,
    after the committed 50-user bench."""
    scenario = json.loads(
        (ROOT / "BENCH_PERF_50.json").read_text())["scenario"]
    built = []
    run_bench(trace=False, post_build=lambda system, engine:
              built.append(system), **scenario)
    (system,) = built
    server = system.host.web_server
    # No CGI program writes a session, so none is kept.
    assert len(server.sessions) == 0
    gateways = [gw for gw in (system.gateway, system.standby_gateway)
                if gw is not None]
    assert all(len(gw._translations) <= TRANSLATION_MEMO_SIZE
               for gw in gateways)
    # The access log keeps only its last ACCESS_LOG_SIZE entries, and
    # one address object per client host, shared by all its entries.
    clients = [entry[1] for entry in server.access_log]
    assert server.stats.get("requests") > len(clients) == ACCESS_LOG_SIZE
    assert len({id(addr) for addr in clients}) == len(set(clients))


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
    assert sorted(sweep) == ["deterministic"]  # no host timing


def test_sweep_bench_rejects_empty():
    with pytest.raises(ValueError):
        sweep_bench([])

