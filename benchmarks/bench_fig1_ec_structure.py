"""Figure 1 — An e-commerce system structure.

Builds the four-component EC system with the library's composition
layer, model-checks the topology against the figure's claims
(components, edges, users -> client computers -> wired networks -> host
computers flow),
renders the structure, and runs a desktop purchase through it to show
the data/control-flow edges carry real traffic.
"""

from repro.analysis import ModelChecker, Verdict
from repro.apps import CommerceApp
from repro.core import ECSystemBuilder, TransactionEngine, render_structure
from repro.core.model import EC_FLOW_CHAIN
from repro.core.render import render_flow_chain

from helpers import run_transaction


def build_and_run():
    system = ECSystemBuilder().build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)
    client = system.add_client("desktop-0")
    engine = TransactionEngine(system)
    record = run_transaction(system, engine, client,
                             shop.browse_and_buy(account="ann"))
    return system, record


def test_fig1_ec_structure(golden):
    system, record = build_and_run()
    report = ModelChecker.for_system(system, figure="ec").run()

    golden.emit("")
    golden.emit(render_structure(system.model,
                                 title="Figure 1 - An EC system structure "
                                       "(as built)"))
    golden.emit("")
    golden.emit("User request path: "
                + render_flow_chain(system.model, EC_FLOW_CHAIN))
    golden.emit(f"Model check against Figure 1: {report.verdict.name} "
                f"({len(report.results)} claims)")
    golden.emit(f"Desktop purchase through the structure: "
                f"{'OK' if record.ok else record.error} "
                f"({record.requests} requests, {record.latency:.3f}s)")
    golden.emit("")

    assert report.verdict is Verdict.PASS, report.render_text()
    assert record.ok, record.error
    # Figure 1 has exactly four top-level components; no wireless parts.
    from repro.core import ComponentKind
    assert not system.model.has_kind(ComponentKind.WIRELESS_NETWORKS)
    assert not system.model.has_kind(ComponentKind.MOBILE_MIDDLEWARE)
    assert not system.model.has_kind(ComponentKind.MOBILE_STATIONS)
    assert system.model.has_kind(ComponentKind.CLIENT_COMPUTERS)
    # Host internals from the figure: web servers, database servers,
    # application programs, databases behind them.
    assert system.model.has_kind(ComponentKind.WEB_SERVERS)
    assert system.model.has_kind(ComponentKind.DATABASE_SERVERS)
    assert system.model.has_kind(ComponentKind.APPLICATION_PROGRAMS)

    golden.check()
