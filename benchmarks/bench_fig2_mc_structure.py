"""Figure 2 — A mobile commerce system structure.

Builds the six-component MC system exactly as the figure's example
implementation describes it — mobile handheld device, WAP middleware,
wireless LAN, wired LAN/WAN, host computers — model-checks the topology
against the figure's claims, renders it, and drives one purchase through every
component, verifying each was actually touched.
"""

from repro.analysis import ModelChecker, Verdict
from repro.apps import CommerceApp
from repro.core import (
    ComponentKind,
    MCSystemBuilder,
    TransactionEngine,
    render_structure,
)
from repro.core.model import MC_FLOW_CHAIN
from repro.core.render import render_flow_chain

from helpers import run_transaction


def build_and_run():
    # The figure's implementation column: handheld device + WAP +
    # wireless LAN + wired LAN/WAN + host computers.
    system = MCSystemBuilder(middleware="WAP",
                             bearer=("wlan", "802.11b")).build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)
    handle = system.add_station("Compaq iPAQ H3870")
    engine = TransactionEngine(system)
    record = run_transaction(system, engine, handle,
                             shop.browse_and_buy(account="ann"))
    return system, handle, record


def test_fig2_mc_structure(golden):
    system, handle, record = build_and_run()
    report = ModelChecker.for_system(system, figure="mc").run()

    golden.emit("")
    golden.emit(render_structure(
        system.model,
        title="Figure 2 - An MC system structure (as built: "
                     "iPAQ + WAP + wireless LAN + wired + host)"))
    golden.emit("")
    golden.emit("User request path: "
                + render_flow_chain(system.model, MC_FLOW_CHAIN))
    golden.emit(f"Model check against Figure 2: {report.verdict.name} "
                f"({len(report.results)} claims)")
    golden.emit(f"Mobile purchase through the structure: "
                f"{'OK' if record.ok else record.error} "
                f"({record.requests} requests, {record.latency:.3f}s, "
                f"{record.render_seconds * 1000:.1f} ms device render)")
    golden.emit("")

    assert report.verdict is Verdict.PASS, report.render_text()
    assert record.ok, record.error

    # Every one of the six components exists and was exercised:
    # (i) applications — the shop handled requests;
    programs = system.model.component("application-programs").implementation
    shop_program = programs.resolve("/shop/buy")
    assert shop_program is not None
    assert shop_program.stats.get("invocations") >= 1
    # (ii) mobile stations — the device rendered pages;
    assert record.render_seconds > 0
    assert handle.browser.pages_rendered == 3
    # (iii) mobile middleware — the gateway translated HTML to WML;
    gateway = system.model.component("mobile-middleware").implementation
    assert gateway.stats.get("translations") >= 1
    # (iv) wireless networks — the radio link carried the frames;
    radio_link = handle.attachment.link
    assert radio_link.stats.get("delivered") > 0
    # (v) wired networks — packets were forwarded through the core;
    core = system.network.node("internet-core")
    assert core.stats.get("forwarded") > 0
    # (vi) host computers — web server requests hit the database server.
    assert system.host.web_server.stats.get("requests") == 3
    assert system.host.db_server.stats.get("queries") >= 3

    golden.check()
