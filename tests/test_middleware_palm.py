"""Tests for Palm Web Clipping (the paper's third middleware)."""

import pytest

from repro.analysis import ModelChecker, Verdict
from repro.apps import CommerceApp
from repro.core import MCSystemBuilder, TransactionEngine
from repro.middleware import (
    CLIPPING_CONTENT_TYPE,
    PalmSession,
    WebClippingProxy,
)
from repro.net import NameRegistry, Network, Subnet
from repro.sim import Simulator
from repro.web import WebServer

LONG_HTML = ("<html><head><title>Long Article</title></head><body>"
             "<script>noise();</script>"
             + "<p>" + "Interesting mobile commerce news. " * 120 + "</p>"
             + "</body></html>")


def clipping_world():
    sim = Simulator()
    net = Network(sim)
    origin = net.add_node("origin")
    proxy_node = net.add_node("clipper", forwarding=True)
    palm = net.add_node("palm")
    net.connect(origin, proxy_node, Subnet.parse("10.0.1.0/24"),
                delay=0.005)
    net.connect(proxy_node, palm, Subnet.parse("10.0.2.0/24"),
                bandwidth_bps=9_600, delay=0.3)  # Mobitex-era radio
    net.build_routes()
    registry = NameRegistry()
    registry.register("news.example.com", origin.primary_address)
    server = WebServer(origin)
    server.add_page("/article", LONG_HTML)
    proxy = WebClippingProxy(proxy_node, registry)
    session = PalmSession(palm, proxy_node.primary_address)
    return sim, proxy, session


def run_get(sim, session, url):
    box = {}

    def go(env):
        box["response"] = yield session.get(url)

    sim.spawn(go(sim))
    sim.run(until=sim.now + 300)
    return box["response"]


def test_clipping_is_small_and_plain():
    sim, proxy, session = clipping_world()
    response = run_get(sim, session, "http://news.example.com/article")
    assert response.ok
    assert response.content_type == CLIPPING_CONTENT_TYPE
    text = response.body.decode()
    assert text.startswith("Long Article")
    assert "Interesting mobile commerce news." in text
    assert "noise()" not in text
    assert len(response.body) <= 1024          # the clipping ceiling
    assert response.meta["truncated"] is True  # the article was long
    assert response.meta["origin_bytes"] > 3000


def test_clipping_compressed_on_the_wire():
    sim, proxy, session = clipping_world()
    response = run_get(sim, session, "http://news.example.com/article")
    # Repetitive text compresses dramatically below the clipping size.
    assert response.meta["wire_bytes"] < response.meta["clipping_bytes"] / 3


def test_clipping_unresolvable_host():
    sim, proxy, session = clipping_world()
    response = run_get(sim, session, "http://ghost.example.com/x")
    assert response.status == 502


def test_palm_session_always_on_like():
    sim, proxy, session = clipping_world()
    run_get(sim, session, "http://news.example.com/article")
    run_get(sim, session, "http://news.example.com/article")
    assert session.stats.get("session_establishments") == 1
    assert session.stats.get("requests") == 2


def test_palm_middleware_in_full_mc_system():
    """The third middleware drops into the builder like the other two."""
    system = MCSystemBuilder(middleware="Palm",
                             bearer=("cellular", "GPRS")).build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)
    handle = system.add_station("Palm i705")  # the natural pairing
    engine = TransactionEngine(system)
    done = engine.run_flow(handle, shop.browse_and_buy(account="ann"))
    system.run(until=600)
    record = done.value
    assert record.ok, record.error
    report = ModelChecker.for_system(system).run()
    assert report.verdict is Verdict.PASS, report.render_text()
    # The pages arrived as clippings and were rendered on the device.
    assert handle.browser.pages_rendered == 3


def test_palm_renders_cheapest_on_device():
    """Pre-digested clippings cost the device less than WML decks."""
    def render_cost(middleware):
        system = MCSystemBuilder(middleware=middleware,
                                 bearer=("cellular", "WCDMA")).build()
        shop = CommerceApp()
        system.mount_application(shop)
        system.host.payment.open_account("ann", 100_000)
        handle = system.add_station("Palm i705")
        engine = TransactionEngine(system)
        done = engine.run_flow(handle, shop.browse_and_buy(account="ann"))
        system.run(until=600)
        assert done.value.ok, done.value.error
        return done.value.render_seconds

    assert render_cost("Palm") < render_cost("WAP")
