"""Capacity engineering tests (DESIGN.md §13): gateway batching,
composed admission control, RAN backpressure and honest goodput
accounting — the machinery that removes the 500-user overload cliff."""

import dataclasses
import json
import pathlib

import pytest

from repro.core import MCSystemBuilder
from repro.core.builder import STANDBY_PORT_OFFSET
from repro.middleware.base import BatchConfig, RequestBatcher, frame_reply
from repro.perf import bench_resilience, check_capacity_curve, run_bench
from repro.resilience import ResilienceConfig
from repro.sim import SeedBank, Simulator
from repro.wireless.cellular import BaseStation, CellularNetwork
from repro.wireless.mobility import Position
from repro.wireless.standards import cellular_standard
from repro.net import Network


# ---------------------------------------------------------- BatchConfig
def test_batch_config_validation():
    with pytest.raises(ValueError):
        BatchConfig(window=-0.1)
    with pytest.raises(ValueError):
        BatchConfig(max_batch=0)
    with pytest.raises(ValueError):
        BatchConfig(watermark=-1)
    with pytest.raises(ValueError):
        BatchConfig(retry_floor=-1.0)
    with pytest.raises(ValueError):
        BatchConfig(jitter=1.0)
    with pytest.raises(ValueError):
        BatchConfig(per_item_cost=-0.5)
    with pytest.raises(ValueError):
        BatchConfig(reserve_factor=0.5)
    with pytest.raises(ValueError):
        BatchConfig(pressure_threshold=-1)


def test_batch_config_drain_gap_scales_with_reserve_factor():
    cfg = BatchConfig(window=0.4, max_batch=4)
    assert cfg.drain_gap == pytest.approx(0.1)
    spaced = BatchConfig(window=0.4, max_batch=4, reserve_factor=5.0)
    assert spaced.drain_gap == pytest.approx(0.5)


# -------------------------------------------------------- RequestBatcher
def _make_batcher(sim, config, handler=None, stream=None, pressure=None):
    if handler is None:
        def handler(request, parent=None):
            if False:
                yield
            return frame_reply(200, "ok")
    return RequestBatcher(sim, config, handler, frame_reply,
                          stream=stream, pressure=pressure)


def test_batcher_paces_flushes_by_window_and_max_batch():
    sim = Simulator()
    served = []

    def handler(request, parent=None):
        if False:
            yield
        served.append((sim.now, request))
        return frame_reply(200, "ok")

    batcher = _make_batcher(
        sim, BatchConfig(window=1.0, max_batch=2), handler=handler)
    replies = [batcher.submit(f"req-{n}") for n in range(6)]
    sim.run(until=10)
    assert all(reply.value["status"] == 200 for reply in replies)
    # 6 requests, 2 per flush, one flush per second: t=0, 1, 2.
    flush_times = sorted({when for when, _ in served})
    assert flush_times == [0.0, 1.0, 2.0]
    assert batcher.stats.get("batches") == 3
    assert batcher.stats.get("batched_requests") == 6


def test_batcher_per_item_cost_is_pipelined_within_a_flush():
    sim = Simulator()
    served = []

    def handler(request, parent=None):
        if False:
            yield
        served.append(sim.now)
        return frame_reply(200, "ok")

    batcher = _make_batcher(
        sim, BatchConfig(window=0.0, max_batch=4, per_item_cost=0.01),
        handler=handler)
    for n in range(4):
        batcher.submit(n)
    sim.run(until=1)
    # Each item starts one per-item cost after the previous — never two
    # handlers in the same kernel batch, where their dispatch order
    # would be observable (the commutativity sanitizer flags that).
    assert served == [pytest.approx(0.01 * (n + 1)) for n in range(4)]
    assert batcher.stats.get("batches") == 1


def test_batcher_watermark_sheds_with_growing_reservation_hints():
    sim = Simulator()
    # A huge window means nothing drains during the test.
    cfg = BatchConfig(window=100.0, max_batch=2, watermark=1,
                      retry_floor=1.0, jitter=0.0, reserve_factor=4.0)
    batcher = _make_batcher(sim, cfg)

    admitted = batcher.submit("first")
    sheds = [batcher.submit(f"excess-{n}") for n in range(3)]
    # Shed replies settle synchronously; the admitted one waits.
    assert not admitted.triggered
    hints = []
    for reply in sheds:
        assert reply.triggered
        assert reply.value["status"] == 503
        hints.append(reply.value["meta"]["retry_after"])
    # Virtual-FIFO reservations: floor first, then one drain_gap apart
    # (reserve_factor over-spaces the returns).
    gap = cfg.drain_gap
    assert hints[0] == pytest.approx(1.0)
    assert hints[1] == pytest.approx(1.0 + gap)
    assert hints[2] == pytest.approx(1.0 + 2 * gap)
    assert batcher.stats.get("admission_sheds") == 3


def test_batcher_shed_jitter_is_seeded_and_bounded():
    def hints_for(seed):
        sim = Simulator()
        cfg = BatchConfig(window=100.0, max_batch=1, watermark=1,
                          retry_floor=1.0, jitter=0.2)
        batcher = _make_batcher(sim, cfg,
                                stream=SeedBank(seed).stream("adm"))
        batcher.submit("fills the queue")
        return [batcher.submit(n).value["meta"]["retry_after"]
                for n in range(4)]

    assert hints_for(3) == hints_for(3)  # same seed, same spread
    cfg = BatchConfig(window=100.0, max_batch=1, watermark=1,
                      retry_floor=1.0, jitter=0.2)
    base = 1.0
    for hint in hints_for(3):
        assert base * 0.8 <= hint <= base * 1.2
        base += cfg.drain_gap


def test_batcher_pressure_gate_sheds_on_upstream_congestion():
    sim = Simulator()
    backlog = {"value": 0}
    cfg = BatchConfig(window=100.0, max_batch=2, retry_floor=0.5,
                      jitter=0.0, pressure_threshold=3)
    batcher = _make_batcher(sim, cfg,
                            pressure=lambda: backlog["value"])

    calm = batcher.submit("radio quiet")
    assert not calm.triggered  # queued for service, not shed

    backlog["value"] = 3  # radio hits the threshold
    shed = batcher.submit("radio congested")
    assert shed.triggered
    assert shed.value["status"] == 503
    assert b"air interface" in shed.value["body"]
    assert shed.value["meta"]["retry_after"] >= 0.5
    assert batcher.stats.get("pressure_sheds") == 1
    assert batcher.stats.get("admission_sheds") == 0


def test_batcher_pressure_gate_off_without_threshold_or_probe():
    sim = Simulator()
    # Probe says "congested" but the threshold is 0: everything queues.
    batcher = _make_batcher(sim, BatchConfig(window=100.0),
                            pressure=lambda: 10_000)
    assert not batcher.submit("x").triggered
    # Threshold set but no probe wired (e.g. WLAN bearer): no gate.
    ungated = _make_batcher(
        sim, BatchConfig(window=100.0, pressure_threshold=1))
    assert not ungated.submit("y").triggered


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
    system = MCSystemBuilder(seed=2, resilience=config,
                             middleware_port=7777).build()
    assert system.gateway.port == 7777
    assert system.standby_gateway.port == 7777 + STANDBY_PORT_OFFSET
    primary = system.registry.lookup_service("middleware")
    standby = system.registry.lookup_service("middleware-standby")
    assert primary.port == system.gateway.port
    assert standby.port == system.standby_gateway.port


def test_builder_wires_air_pressure_probe_for_cellular_only():
    config = ResilienceConfig(batching=BatchConfig(pressure_threshold=4),
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


def _passthrough_batching(**overrides):
    """Batching on, but shaped to add zero virtual delay and no sheds."""
    return ResilienceConfig(
        batching=BatchConfig(window=0.0, max_batch=8, per_item_cost=0.0,
                             watermark=0),
        standby_gateway=False, direct_fallback=False, **overrides)


def test_batching_is_transparent_on_the_untraced_wire():
    """A zero-delay batcher must not change what the wire carries."""
    batched = run_bench(resilience=_passthrough_batching(), **SMALL)
    unbatched = run_bench(
        resilience=dataclasses.replace(_passthrough_batching(),
                                       batching=None),
        **SMALL)
    det_a = dict(batched["deterministic"])
    det_b = dict(unbatched["deterministic"])
    # The batcher runs its own flush processes (different kernel event
    # totals) and reports its own counters; everything the *clients*
    # can observe — counts, latencies, retries — must be identical.
    for key in ("kernel_events", "gateway_admission"):
        det_a.pop(key), det_b.pop(key)
    assert det_a == det_b
    admission = batched["deterministic"]["gateway_admission"]
    assert admission["batched_requests"] == det_a["completed"] * 3
    assert admission["sheds"] == 0


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
    still expose the stranded work."""
    bench = bench_resilience()
    throttled = dataclasses.replace(bench, batching=dataclasses.replace(
        bench.batching, window=2.0, max_batch=1, watermark=0,
        pressure_threshold=0))
    report = run_bench(users=5, seed=11, transactions_per_user=4,
                       horizon=40.0, trace=False, resilience=throttled)
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
