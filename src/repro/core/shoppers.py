"""The closed-loop shopper workload both end-to-end runners drive.

:func:`run_shoppers` is Table 1's commerce path under load: it builds
the system, mounts the shop, opens one account per station, and spawns
one paced ``browse_and_buy`` shopper per station.  The load benchmark
(:func:`repro.perf.loadgen.run_bench`) and the chaos runner
(:func:`repro.faults.chaos.run_chaos`) differ only in the builder they
pass, what they install in ``start`` (a tracer; a fault plan) and
three values that decide seed streams and wire bytes: ``account``
(in every request URL), ``think`` (the pacing stream) and ``stock``
(rendered on the item page).
:func:`outcome` is the report block they share and
:func:`canonical_json` the one serialisation every report uses.
"""

from __future__ import annotations

import json

from ..apps import CommerceApp
from ..sim import percentile
from .transaction import TransactionEngine

__all__ = ["DEFAULT_DEVICE", "run_shoppers", "outcome", "canonical_json"]

DEFAULT_DEVICE = "Nokia 9290 Communicator"


def run_shoppers(builder, *, stations: int, transactions: int,
                 horizon: float, device: str, stock: int, account: str,
                 think: str, start=None, post_build=None) -> tuple:
    """Build, load and run the shop; returns ``(system, engine, handles)``.

    Each of ``stations`` stations is shopper ``<account><index>`` and
    runs ``transactions`` purchases paced across ``horizon`` virtual
    seconds by the ``think`` seed stream (otherwise everything would
    finish before the first fault fires).  ``stock`` is each item's
    stock level.  ``start(system)`` runs once the engine exists and
    before the think stream is drawn; ``post_build(system, engine)``
    runs after every shopper is spawned, just before the clock starts
    (the bench worker and the tests read the built system there).
    """
    if stations < 1:
        raise ValueError(f"stations must be >= 1, got {stations}")
    if transactions < 1:
        raise ValueError(f"transactions must be >= 1, got {transactions}")
    system = builder.build()

    shop = CommerceApp(items=[("WAP Phone", 19900, stock),
                              ("Leather Case", 950, stock)])
    system.mount_application(shop)
    for index in range(stations):
        system.host.payment.open_account(f"{account}{index}", 100_000_000)

    handles = [system.add_station(device, name=f"station-{index}")
               for index in range(stations)]
    engine = TransactionEngine(system)
    if start is not None:
        start(system)

    pace = system.seeds.stream(think)
    interval = horizon / (transactions + 1)

    def shopper(env, handle, name):
        yield env.timeout(pace.uniform(0.1, 0.9) * interval)
        for _ in range(transactions):
            started = env.now
            yield engine.run_flow(
                handle, shop.browse_and_buy(item_id=1, account=name))
            elapsed = env.now - started
            yield env.timeout(max(0.1, interval - elapsed)
                              * pace.uniform(0.7, 1.3))

    for index, handle in enumerate(handles):
        system.sim.spawn(shopper(system.sim, handle, f"{account}{index}"),
                         name=f"{account}-{index}")

    if post_build is not None:
        post_build(system, engine)

    system.run(until=horizon)
    return system, engine, handles


def outcome(engine, offered: int) -> dict:
    """The report fields both runners share, from the engine's ledger.

    Success is reported against *offered* load (every transaction the
    stations were asked to run), not just against the ones that
    happened to finish inside the horizon.
    """
    records = engine.completed
    latencies = sorted(engine.latencies())
    successful = len(engine.successful)
    return {
        "offered": offered,
        "completed": len(records),
        "successful": successful,
        "success_vs_offered": round(successful / offered, 6),
        "retries": sum(record.retries for record in records),
        "latency": {
            "p50": round(percentile(latencies, 0.50), 6),
            "p95": round(percentile(latencies, 0.95), 6),
            "max": round(latencies[-1], 6) if latencies else 0.0,
        },
    }


def canonical_json(report) -> str:
    """Canonical serialisation: byte-identical for identical reports."""
    return json.dumps(report, indent=2, sort_keys=True)
