"""Capacity engineering tests (DESIGN.md §13): gateway batching,
composed admission control, RAN backpressure and honest goodput
accounting — the machinery that removes the 500-user overload cliff."""

import json
import pathlib

import pytest

from repro.core import MCSystemBuilder
from repro.core.builder import STANDBY_PORT_OFFSET
from repro.middleware.base import (BATCH_MAX, BATCH_WINDOW, DRAIN_GAP,
                                   PER_ITEM_COST, PRESSURE_THRESHOLD,
                                   RESERVE_FACTOR, RETRY_FLOOR, SHED_JITTER,
                                   WATERMARK, RequestBatcher, frame_reply)
from repro.middleware.wap import WSP_PORT
from repro.perf import bench_resilience, check_capacity_curve, run_bench
from repro.resilience import ResilienceConfig
from repro.sim import SeedBank, Simulator
from repro.wireless.cellular import BaseStation, CellularNetwork
from repro.wireless.mobility import Position
from repro.wireless.standards import cellular_standard
from repro.net import Network


# -------------------------------------------------------- RequestBatcher
def _make_batcher(sim, handler=None, stream=None, pressure=None):
    if handler is None:
        def handler(request, parent=None):
            if False:
                yield
            return frame_reply(200, "ok")
    return RequestBatcher(sim, handler, frame_reply,
                          stream=stream, pressure=pressure)


def _logging_handler(sim, served):
    def handler(request, parent=None):
        if False:
            yield
        served.append(sim.now)
        return frame_reply(200, "ok")
    return handler


def test_batcher_paces_flushes_by_window_and_max_batch():
    sim = Simulator()
    served = []
    batcher = _make_batcher(sim, handler=_logging_handler(sim, served))
    replies = [batcher.submit(f"req-{n}") for n in range(2 * BATCH_MAX)]
    sim.run(until=10)
    assert all(reply.value["status"] == 200 for reply in replies)
    # BATCH_MAX requests per flush, one flush per BATCH_WINDOW: t=0 and
    # t=BATCH_WINDOW, each item one PER_ITEM_COST after the previous.
    assert served == [pytest.approx(flush * BATCH_WINDOW
                                    + (item + 1) * PER_ITEM_COST)
                      for flush in range(2) for item in range(BATCH_MAX)]
    assert batcher.stats.get("batches") == 2
    assert batcher.stats.get("batched_requests") == 2 * BATCH_MAX


def test_batcher_per_item_cost_is_pipelined_within_a_flush():
    sim = Simulator()
    served = []
    batcher = _make_batcher(sim, handler=_logging_handler(sim, served))
    for n in range(BATCH_MAX):
        batcher.submit(n)
    sim.run(until=1)
    # Each item starts one per-item cost after the previous — never two
    # handlers at one instant (the pinned bench bytes depend on it).
    assert served == [pytest.approx(PER_ITEM_COST * (n + 1))
                      for n in range(BATCH_MAX)]
    assert batcher.stats.get("batches") == 1


def test_batcher_watermark_sheds_with_growing_reservation_hints():
    sim = Simulator()
    batcher = _make_batcher(sim)
    # The clock never runs, so nothing drains during the test.
    admitted = [batcher.submit(f"queued-{n}") for n in range(WATERMARK)]
    sheds = [batcher.submit(f"excess-{n}") for n in range(3)]
    # Shed replies settle synchronously; the admitted ones wait.
    assert not any(reply.triggered for reply in admitted)
    hints = []
    for reply in sheds:
        assert reply.triggered
        assert reply.value["status"] == 503
        hints.append(reply.value["meta"]["retry_after"])
    # Virtual-FIFO reservations: floor first, then one drain gap apart
    # (RESERVE_FACTOR over-spaces the returns).
    assert DRAIN_GAP == pytest.approx(RESERVE_FACTOR * BATCH_WINDOW
                                      / BATCH_MAX)
    assert hints == [pytest.approx(RETRY_FLOOR + n * DRAIN_GAP)
                     for n in range(3)]
    assert batcher.stats.get("admission_sheds") == 3


def test_batcher_shed_jitter_is_seeded_and_bounded():
    def hints_for(seed):
        sim = Simulator()
        batcher = _make_batcher(sim, stream=SeedBank(seed).stream("adm"))
        for n in range(WATERMARK):
            batcher.submit(f"fills the queue {n}")
        return [batcher.submit(n).value["meta"]["retry_after"]
                for n in range(4)]

    assert hints_for(3) == hints_for(3)  # same seed, same spread
    assert hints_for(3) != hints_for(4)
    base = RETRY_FLOOR
    for hint in hints_for(3):
        assert (base * (1 - SHED_JITTER) <= hint
                <= base * (1 + SHED_JITTER))
        base += DRAIN_GAP


def test_batcher_pressure_gate_sheds_on_upstream_congestion():
    sim = Simulator()
    backlog = {"value": PRESSURE_THRESHOLD - 1}
    batcher = _make_batcher(sim, pressure=lambda: backlog["value"])

    calm = batcher.submit("radio below the threshold")
    assert not calm.triggered  # queued for service, not shed

    backlog["value"] = PRESSURE_THRESHOLD  # radio hits the threshold
    shed = batcher.submit("radio congested")
    assert shed.triggered
    assert shed.value["status"] == 503
    assert b"air interface" in shed.value["body"]
    assert shed.value["meta"]["retry_after"] == RETRY_FLOOR
    assert batcher.stats.get("pressure_sheds") == 1
    assert batcher.stats.get("admission_sheds") == 0


def test_batcher_pressure_gate_off_without_probe():
    # No probe wired (e.g. WLAN bearer): no gate.
    sim = Simulator()
    assert not _make_batcher(sim).submit("y").triggered


# -------------------------------------------------- RAN backpressure probe
def _gprs_cell():
    sim = Simulator()
    network = Network(sim)
    core = network.add_node("ggsn", forwarding=True)
    cellnet = CellularNetwork(network, core, cellular_standard("GPRS"))
    return sim, cellnet.add_base_station("cell-0", Position(0.0, 0.0))


def test_air_backlog_counts_airtime_waiters():
    sim, station = _gprs_cell()
    assert station.air_backlog() == 0
    granted = station.shared_airtime.request()
    assert granted.triggered
    assert station.air_backlog() == 0  # a holder is not a waiter
    station.shared_airtime.request()
    station.shared_airtime.request()
    assert station.air_backlog() == 2
    station.shared_airtime.release(granted)
    assert station.air_backlog() == 1


def test_air_backlog_zero_for_circuit_switched_cells():
    sim = Simulator()
    network = Network(sim)
    core = network.add_node("msc", forwarding=True)
    cellnet = CellularNetwork(network, core, cellular_standard("GSM"))
    station = cellnet.add_base_station("cell-0", Position(0.0, 0.0))
    assert station.shared_airtime is None
    assert station.air_backlog() == 0


# ------------------------------------------------------- builder wiring
def test_standby_ports_derive_from_primary_not_hardcoded():
    config = ResilienceConfig()
    system = MCSystemBuilder(seed=2, resilience=config).build()
    assert system.gateway.port == WSP_PORT
    assert system.standby_gateway.port == WSP_PORT + STANDBY_PORT_OFFSET
    primary = system.registry.lookup_service("middleware")
    standby = system.registry.lookup_service("middleware-standby")
    assert primary.port == system.gateway.port
    assert standby.port == system.standby_gateway.port


def test_builder_wires_air_pressure_probe_for_cellular_only():
    config = ResilienceConfig(batching=True,
                              standby_gateway=False,
                              direct_fallback=False)
    cellular = MCSystemBuilder(seed=2, resilience=config,
                               bearer=("cellular", "GPRS")).build()
    assert cellular.gateway.batcher is not None
    assert cellular.gateway.batcher.pressure is not None
    assert cellular.gateway.batcher.pressure() == 0  # idle radio
    wlan = MCSystemBuilder(seed=2, resilience=config,
                           bearer=("wlan", "802.11b")).build()
    assert wlan.gateway.batcher.pressure is None


# --------------------------------------------------- capacity curve check
def test_check_capacity_curve_accepts_monotone_goodput():
    points = [
        {"users": 50, "admitted": 200, "goodput_tps": 0.8},
        {"users": 150, "admitted": 500, "goodput_tps": 2.1},
        {"users": 300, "admitted": 700, "goodput_tps": 2.0},  # within 5%
    ]
    verdict = check_capacity_curve(points)
    assert verdict["monotone"] is True
    assert verdict["regressions"] == []


def test_check_capacity_curve_flags_the_overload_cliff():
    points = [
        {"users": 50, "admitted": 200, "goodput_tps": 0.8},
        {"users": 500, "admitted": 2000, "goodput_tps": 0.05},  # cliff
    ]
    verdict = check_capacity_curve(points)
    assert verdict["monotone"] is False
    assert verdict["regressions"][0]["users"] == 500
    assert verdict["regressions"][0]["previous_best"] == 0.8


def test_committed_capacity_curve_is_monotone():
    # BENCH_PERF_50.json holds `repro bench --users 50 --seed 7 --sweep
    # 50,150,300`, and CI cmp's a fresh run against it; its curve must
    # be the verdict on its own points, with no cliff.
    sweep = json.loads((pathlib.Path(__file__).parent.parent
                        / "BENCH_PERF_50.json").read_text())["sweep"]
    curve = check_capacity_curve(sweep["deterministic"]["points"])
    assert curve == sweep["deterministic"]["curve"]
    assert curve["monotone"], curve["regressions"]


# ------------------------------------------------------- bench integration
SMALL = dict(users=5, seed=11, transactions_per_user=2, horizon=90.0,
             trace=False)


def test_accounting_reports_offered_vs_admitted_vs_succeeded():
    report = run_bench(resilience=bench_resilience(), **SMALL)
    det = report["deterministic"]
    assert det["offered"] == SMALL["users"] * SMALL["transactions_per_user"]
    assert det["started"] <= det["offered"]
    assert det["admitted"] == det["started"] - det["rejected"]
    assert det["succeeded"] <= det["completed"] <= det["started"]
    assert det["success_vs_offered"] == pytest.approx(
        det["succeeded"] / det["offered"])


def test_deprecated_success_rate_is_gone_from_bench_output():
    """success_rate divided by *completed*, so a gateway that strands
    most of the offered load could still report near-perfect success.
    The field is now removed outright from the bench deterministic
    section; success_vs_offered is the honest replacement and must
    still expose the stranded work (here 160 purchases offered in 10
    virtual seconds, far past what the cell serves)."""
    report = run_bench(users=40, seed=11, transactions_per_user=4,
                       horizon=10.0, trace=False,
                       resilience=bench_resilience())
    det = report["deterministic"]
    assert "success_rate" not in det
    assert det["completed"] < det["offered"]
    assert det["success_vs_offered"] < det["succeeded"] / det["completed"]


def test_saturation_serves_admitted_work_and_sheds_the_excess():
    """Overload behaviour after the fix: admitted transactions succeed
    (>= 90%) while the excess is shed with 503 + Retry-After instead of
    collapsing the cell."""
    report = run_bench(users=120, seed=7, transactions_per_user=4,
                       horizon=120.0, trace=False,
                       resilience=bench_resilience())
    det = report["deterministic"]
    admission = det["gateway_admission"]
    assert admission["sheds"] > 0  # the excess was turned away
    assert det["succeeded"] > 0
    # Work the gateway admitted (started minus shed-by-design) succeeds.
    assert det["succeeded"] / det["admitted"] >= 0.9
    # The shed excess is visible to clients as 503s, not timeouts.
    assert det["shed_503s"] > 0
