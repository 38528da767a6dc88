"""Table 3 — Two major kinds of mobile middleware (WAP vs i-mode).

Reproduces the paper's qualitative comparison and backs every row with
a measurement from the two implementations serving the same origin
page to the same device over the same bearer:

* Function: protocol translation (WAP transcodes HTML->WML->WMLC) vs
  complete service (i-mode adapts to cHTML over plain HTTP);
* Host language: delivered content types observed on the device;
* Major technology: gateway translation time vs TCP/IP keep-alive
  (session establishment counts);
* plus delivered byte counts and request latencies.
"""

from repro.apps import CommerceApp
from repro.core import MCSystemBuilder, TransactionEngine
from repro.middleware import CHTML_CONTENT_TYPE, WMLC_CONTENT_TYPE

from helpers import run_transaction


def run_stack(middleware: str) -> dict:
    system = MCSystemBuilder(middleware=middleware,
                             bearer=("cellular", "GPRS")).build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 500_000)
    handle = system.add_station("Nokia 9290 Communicator")
    engine = TransactionEngine(system)

    # Two consecutive catalog fetches: the first pays any session setup.
    def catalog_twice(ctx):
        first = yield from ctx.get("/shop/catalog")
        yield from ctx.render(first)
        second = yield from ctx.get("/shop/catalog")
        yield from ctx.render(second)
        return {"content_type": first.content_type,
                "bytes": len(first.body),
                "origin_bytes": first.meta.get("origin_bytes", 0)}

    record = run_transaction(system, engine, handle, catalog_twice)
    assert record.ok, record.error

    gateway = system.model.component("mobile-middleware").implementation
    session = handle.session
    return {
        "record": record,
        "result": record.result,
        "session_establishments": session.stats.get(
            "session_establishments"),
        "requests": session.stats.get("requests"),
        "translations": gateway.stats.get("translations"),
        "adaptations": gateway.stats.get("adaptations"),
        "passthrough": gateway.stats.get("passthrough"),
    }


def run_both():
    return {name: run_stack(name) for name in ("WAP", "i-mode")}


def test_table3_middleware(golden):
    measured = run_both()
    wap, imode = measured["WAP"], measured["i-mode"]

    rows = [
        ["Developer", "WAP Forum", "NTT DoCoMo"],
        ["Function (paper)", "A protocol",
         "A complete mobile Internet service"],
        ["Host language (paper)", "WML", "cHTML"],
        ["Host language (measured)",
         wap["result"]["content_type"], imode["result"]["content_type"]],
        ["Major technology (paper)", "WAP Gateway",
         "TCP/IP modifications"],
        ["Gateway translations (measured)",
         str(wap["translations"]), str(imode["translations"] or 0)],
        ["Centre adaptations+passthrough (measured)",
         str(wap["adaptations"] + wap["passthrough"]),
         str(imode["adaptations"] + imode["passthrough"])],
        ["Sessions established / 2 requests",
         str(wap["session_establishments"]),
         str(imode["session_establishments"])],
        ["Delivered bytes (same page)",
         str(wap["result"]["bytes"]), str(imode["result"]["bytes"])],
        ["Origin bytes (HTML)",
         str(wap["result"]["origin_bytes"]), "n/a (proxied)"],
        ["2-fetch latency (measured)",
         f"{wap['record'].latency:.3f}s", f"{imode['record'].latency:.3f}s"],
    ]
    golden.table("Table 3 - Two major kinds of mobile middleware "
                 "(paper rows + measured)",
                 ["", "WAP", "i-mode"], rows)

    # Host languages are what the paper says they are.
    assert wap["result"]["content_type"] == WMLC_CONTENT_TYPE
    assert imode["result"]["content_type"] == CHTML_CONTENT_TYPE
    # WAP translates at the gateway; i-mode serves cHTML (adapting or
    # passing through content that is already compact).
    assert wap["translations"] == 2
    assert imode["adaptations"] + imode["passthrough"] == 2
    assert imode["translations"] == 0
    # Both are always-on after the first request in our model; both
    # compress relative to the origin HTML.
    assert wap["result"]["bytes"] < wap["result"]["origin_bytes"]
    # The binary-encoded WML deck is smaller than the cHTML page.
    assert wap["result"]["bytes"] < imode["result"]["bytes"]

    golden.check()
