"""Load generator: N concurrent users through the whole stack.

The benchmark runs the same shopper workload as the chaos runner
(:func:`repro.core.shoppers.run_shoppers`) minus the fault plan: every
user is a seeded shopper running ``browse_and_buy`` flows paced across
the horizon.  The kernel's own ``events_processed`` counter supplies event
totals (no profiler in the run — its per-event hook costs
several percent of wall time) and a :class:`~repro.obs.Tracer` records
per-layer spans, so the report can break virtual latency down by layer.

The report's ``deterministic`` section holds everything derived from
the virtual run (counts, latency percentiles, per-layer seconds, kernel
event totals): same seed, same bytes, and the transparency tests in
``tests/test_perf_bench.py`` byte-compare exactly this section.
The report carries no host timing; ``python -m bench`` is the timer
(median and IQR over interleaved repeats).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

from ..core import MCSystemBuilder
from ..core.shoppers import DEFAULT_DEVICE, outcome, run_shoppers
from ..fleet import fleet_report
from ..middleware.base import BatchConfig
from ..obs import install_tracer, layer_breakdown
from ..opt import OPTIMIZATIONS
from ..resilience import ResilienceConfig, RetryPolicy

__all__ = ["run_bench", "sweep_bench", "bench_resilience",
           "check_capacity_curve"]


def bench_resilience() -> ResilienceConfig:
    """The load benchmark's capacity-engineered policy set (DESIGN §13).

    On top of the default resilience knobs this enables gateway-side
    batching (the sustained service rate ``max_batch / window`` is
    sized to keep the GPRS cell's shared airtime below saturation)
    and admission control (watermark + virtual-FIFO Retry-After
    reservations), so overload is shed at the cheapest layer instead of
    timing out after burning wireless and middleware budget.
    """
    return ResilienceConfig(
        batching=BatchConfig(
            # 4 requests / 0.3s = ~13.3 req/s sustained service, sized so
            # the admitted stream (~620B of shared GPRS airtime per served
            # request) plus shed chatter stays below the cell's 12.5 KB/s.
            # ~18.75 req/s nominal: deliberately above what the radio can
            # sustain, so the binding constraint is the RAN backpressure
            # gate below (which tracks the radio's true capacity) rather
            # than a hardcoded rate that wastes airtime when the cell is
            # quiet.  Empirically the knee: shorter windows push the GPRS
            # cell into queueing (p50 latency jumps 3s -> 30s+).
            window=0.16,
            max_batch=3,
            per_item_cost=0.001,
            # A shallow watermark sheds the arrival wave BEFORE the radio
            # saturates: a shed cycle costs ~400B of airtime against ~620B
            # plus queueing for a served request, and the parked client
            # stops contending entirely until its reservation matures.
            watermark=12,
            retry_floor=1.0,
            jitter=0.2,
            # Over-space reservations 5x so returning shed clients use a
            # fraction of the service slots, leaving room for fresh
            # arrivals; repeated sheds push the pointer (and the hints)
            # out fast, which is what parks the overload wave.
            reserve_factor=5.0,
            # RAN backpressure: stop admitting whenever ~12 transmitters
            # are already queued for the cell's shared airtime — replies
            # sent into a saturated cell only deepen the collapse.
            pressure_threshold=12,
        ),
        # Shed clients park on the virtual-FIFO Retry-After hint (which
        # grows with the shed backlog) rather than on their own small
        # exponential backoff; parked devices cost zero airtime.
        retry=RetryPolicy(max_attempts=5, base_delay=0.5, max_delay=8.0,
                          jitter=0.3),
        # Air-queueing latency under load must not masquerade as a dead
        # route: aborting a slow-but-alive request tears down the WSP
        # session, and the reconnect handshake storm consumes the very
        # airtime whose scarcity caused the slowness.  GPRS-era WAP
        # gateways ran 30-60s deadlines for exactly this reason.
        request_timeout=20.0,
        # Failover routes (standby gateway, direct HTML) cross the SAME
        # saturated cell, so under overload they only triple handshake
        # traffic.  The capacity scenario pins the primary route; the
        # chaos suite exercises failover with its own config.
        standby_gateway=False,
        direct_fallback=False,
    )


def check_capacity_curve(points, tolerance: float = 0.05) -> dict:
    """Verify goodput is monotone non-decreasing in admitted load.

    A healthy capacity curve rises with offered load and flattens at
    the knee; a cliff (goodput collapsing as more work is admitted)
    is the overload failure mode DESIGN §13 removed.  ``tolerance``
    forgives small non-monotonicities from discreteness at low loads.
    """
    ordered = sorted(points, key=lambda p: (p["admitted"], p["users"]))
    best = 0.0
    regressions = []
    for point in ordered:
        goodput = point["goodput_tps"]
        if goodput < best * (1.0 - tolerance):
            regressions.append({
                "users": point["users"],
                "admitted": point["admitted"],
                "goodput_tps": goodput,
                "previous_best": round(best, 6),
            })
        best = max(best, goodput)
    return {"monotone": not regressions, "tolerance": tolerance,
            "regressions": regressions}


def run_bench(users: int = 50, seed: int = 7,
              transactions_per_user: int = 4,
              horizon: float = 240.0,
              middleware: str = "WAP",
              bearer: tuple = ("cellular", "GPRS"),
              device: str = DEFAULT_DEVICE,
              policies: bool = True,
              trace: bool = True,
              post_build=None,
              resilience: Optional[ResilienceConfig] = None,
              fleet: int = 0) -> dict:
    """Run the load scenario once and return the benchmark report dict.

    ``users`` stations each run ``transactions_per_user`` purchase flows
    spread across ``horizon`` virtual seconds.  ``post_build(system,
    engine)``, when given, runs after the scenario is fully wired but
    before the clock starts — the race sanitizer uses it to instrument
    shared state and install its kernel hook.
    ``resilience`` overrides the policy set (tests use it to force
    specific capacity knobs); the default with ``policies=True`` is
    :func:`bench_resilience`.  ``fleet`` > 0 runs the middleware tier
    as an N-member gateway fleet behind the consistent-hash balancer
    (requires policies); a fleet of 1 is transparent: its report is
    byte-identical to the single-gateway build's.
    """
    if resilience is None:
        resilience = bench_resilience() if policies else None
    if fleet > 0:
        if resilience is None:
            raise ValueError("a gateway fleet requires policies=True")
        resilience = dataclasses.replace(resilience, fleet_size=fleet)

    def start(system):
        if trace:
            install_tracer(system.sim)

    system, engine, _ = run_shoppers(
        MCSystemBuilder(seed=seed, middleware=middleware, bearer=bearer,
                        resilience=resilience),
        stations=users, transactions=transactions_per_user,
        horizon=horizon, device=device, stock=10_000_000, account="user",
        think="bench-think", start=start, post_build=post_build)

    shared = outcome(engine, users * transactions_per_user)
    started = len(engine.records)
    # A completed-but-failed transaction whose attempts saw 503s was
    # rejected by admission control (gateway watermark or web-server
    # shedding) — shed by design, not lost to overload.
    rejected = sum(1 for record in engine.completed
                   if not record.ok and record.shed_503s > 0)

    deterministic = {
        "users": users,
        "seed": seed,
        "transactions_per_user": transactions_per_user,
        "horizon": horizon,
        "middleware": middleware,
        "bearer": list(bearer),
        "device": device,
        "policies": bool(policies),
        **shared,
        "started": started,
        "admitted": started - rejected,
        "rejected": rejected,
        "succeeded": shared["successful"],
        "shed_503s": sum(record.shed_503s for record in engine.completed),
        "kernel_events": system.sim.events_processed,
        "virtual_seconds": round(system.sim.now, 6),
    }
    admission = {"sheds": 0, "watermark_sheds": 0, "pressure_sheds": 0,
                 "batches": 0, "batched_requests": 0}
    if system.fleet is not None:
        gateways = [m.gateway for m in system.fleet.members.values()]
    else:
        gateways = [system.gateway, system.standby_gateway]
    for gw in gateways:
        counts = gw.stats.as_dict() if gw is not None else {}
        admission["watermark_sheds"] += counts.get("admission_sheds", 0)
        admission["pressure_sheds"] += counts.get("pressure_sheds", 0)
        admission["batches"] += counts.get("batches", 0)
        admission["batched_requests"] += counts.get("batched_requests", 0)
    # Total sheds across both admission signals (queue watermark and
    # RAN backpressure) — the number clients experienced as 503s.
    admission["sheds"] = (admission["watermark_sheds"]
                          + admission["pressure_sheds"])
    deterministic["gateway_admission"] = admission
    # Only a *real* fleet (>= 2 members) adds its section: a fleet of 1
    # must give the single-gateway build's bytes, so the degenerate case
    # must not change the report shape.
    if system.fleet is not None and resilience.fleet_size >= 2:
        deterministic["fleet"] = fleet_report(system)
    if trace:
        deterministic["layers"] = _aggregate_layers(system.sim.tracer)
        deterministic["spans"] = len(system.sim.tracer.spans)

    return {
        "deterministic": deterministic,
        "optimizations": OPTIMIZATIONS.as_dict(),
    }


def sweep_bench(user_counts: Iterable[int], seed: int = 7,
                transactions_per_user: int = 4,
                horizon: float = 240.0,
                fleet: int = 0) -> dict:
    """Goodput-vs-offered-load curve across a list of user counts.

    Each point runs the standard bench scenario (tracing off — the
    curve cares about throughput, not layer attribution).  Offered load
    is what the stations *attempt* (``users * transactions_per_user /
    horizon`` tx per virtual second); goodput is what the system
    actually completed successfully per virtual second.  The gap between
    the two as users grow is the overload curve capacity PRs move.
    Every field is derived from the virtual run (``deterministic``).
    """
    counts = sorted(set(int(count) for count in user_counts))
    if not counts:
        raise ValueError("sweep needs at least one user count")
    det_points = []
    for users in counts:
        report = run_bench(users=users, seed=seed,
                           transactions_per_user=transactions_per_user,
                           horizon=horizon, trace=False, fleet=fleet)
        det = report["deterministic"]
        virtual = det["virtual_seconds"] or horizon
        det_points.append({
            "users": users,
            "offered": det["offered"],
            "admitted": det["admitted"],
            "completed": det["completed"],
            "succeeded": det["succeeded"],
            "offered_tps": round(users * transactions_per_user / horizon, 6),
            "goodput_tps": round(det["succeeded"] / virtual, 6),
            "success_vs_offered": det["success_vs_offered"],
            "latency_p50": det["latency"]["p50"],
            "latency_p95": det["latency"]["p95"],
            "kernel_events": det["kernel_events"],
        })
    return {
        "deterministic": {
            "seed": seed,
            "transactions_per_user": transactions_per_user,
            "horizon": horizon,
            "fleet": fleet,
            "points": det_points,
            "curve": check_capacity_curve(det_points),
        },
    }


def _aggregate_layers(tracer) -> dict:
    """Virtual seconds per layer, summed over every closed trace."""
    by_trace: dict[int, list] = {}
    open_traces = set()
    for span in tracer.spans:
        by_trace.setdefault(span.trace_id, []).append(span)
        if span.parent_id is None and span.end is None:
            # Flows still in flight at the horizon have open roots;
            # layer_breakdown requires a closed root, so skip them
            # (deterministically — openness derives from virtual time).
            open_traces.add(span.trace_id)
    totals: dict[str, float] = {}
    for trace_id, spans in sorted(by_trace.items()):
        if trace_id in open_traces:
            continue
        for layer, seconds in layer_breakdown(spans).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return {layer: round(seconds, 6)
            for layer, seconds in sorted(totals.items())}
