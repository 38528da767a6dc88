"""One contract for every device-side session: WAP, WAP+WTLS, i-mode, Palm.

Each case drives a real session against a real gateway and origin and
checks what the application sees: the exact :class:`MiddlewareResponse`,
the request/reply pairing over one connection, deadlines, hang-ups and
backpressure hints.  The EOF messages are part of the contract because
a failed transaction's ``record.error`` carries them.
"""

import zlib

import pytest

from repro.middleware import (
    CHTML_CONTENT_TYPE,
    CLIPPING_CONTENT_TYPE,
    IModeCenter,
    IModeSession,
    MiddlewareResponse,
    PalmSession,
    RequestTimeout,
    WAPGateway,
    WAPSession,
    WMLC_CONTENT_TYPE,
    WebClippingProxy,
    encode_wmlc,
    extract_title,
    html_to_wml,
    strip_tags,
    to_chtml,
)
from repro.net import NameRegistry, Network, Subnet
from repro.sim import SeedBank, Simulator
from repro.web import HTTPResponse, WebServer

PAGE = ("<html><head><title>Shop</title></head><body>"
        "<p>Mobile commerce catalog.</p></body></html>")
ORDER = ("<html><head><title>Order</title></head><body>"
         "<p>Thanks ann, 2 phones.</p></body></html>")
LATE = ("<html><head><title>Late</title></head><body>"
        "<p>Answered after a minute.</p></body></html>")

KINDS = ["WAP", "WAP+WTLS", "i-mode", "Palm"]
# kind -> the protocol word of its "<word> session closed" EOF message
CLOSED = {"WAP": "WSP", "WAP+WTLS": "WTLS", "i-mode": "i-mode",
          "Palm": "clipping"}


def order(ctx):
    return HTTPResponse.ok(
        ORDER.replace("ann", ctx.param("user")).replace(
            "2", ctx.param("qty")))


class World:
    """Origin web server, the gateway host and a phone, all wired."""

    def __init__(self, kind: str, **gateway_kwargs):
        self.kind = kind
        self.sim = Simulator()
        net = Network(self.sim)
        origin = net.add_node("origin")
        node = net.add_node("gateway", forwarding=True)
        phone = net.add_node("phone")
        net.connect(origin, node, Subnet.parse("10.0.1.0/24"), delay=0.005)
        net.connect(node, phone, Subnet.parse("10.0.2.0/24"),
                    bandwidth_bps=100_000, delay=0.05)
        net.build_routes()
        registry = NameRegistry()
        registry.register("shop.example.com", origin.primary_address)
        self.server = WebServer(origin)
        self.server.add_page("/", PAGE)
        self.server.mount("/order", order)
        self.server.mount("/slow", self.slow)
        seeds = SeedBank(5)
        address = node.primary_address
        if kind.startswith("WAP"):
            secure = kind == "WAP+WTLS"
            self.gateway = WAPGateway(
                node, registry, entropy=seeds.stream("gateway"),
                **gateway_kwargs)
            self.session = WAPSession(
                phone, address, secure=secure,
                entropy=seeds.stream("phone") if secure else None)
        elif kind == "i-mode":
            self.gateway = IModeCenter(node, registry, **gateway_kwargs)
            self.session = IModeSession(phone, address)
        else:
            self.gateway = WebClippingProxy(node, registry, **gateway_kwargs)
            self.session = PalmSession(phone, address)

    def slow(self, ctx):
        yield self.sim.timeout(60.0)
        return HTTPResponse.ok(LATE)

    def start(self, call):
        """Spawn ``call()`` (a session event) now; a box for its outcome."""
        box = {}

        def go(env):
            try:
                box["response"] = yield call()
            except (ConnectionError, RequestTimeout) as exc:
                box["error"] = exc
            box["at"] = env.now

        self.sim.spawn(go(self.sim), name="contract-caller")
        return box

    def run(self, seconds: float = 120.0) -> None:
        self.sim.run(until=self.sim.now + seconds)

    def get(self, url: str = "http://shop.example.com/", **kwargs):
        box = self.start(lambda: self.session.get(url, **kwargs))
        self.run()
        return box

    def page(self, html: str, status: int = 200) -> MiddlewareResponse:
        """What this middleware delivers for an origin HTML page."""
        if self.kind.startswith("WAP"):
            deck = html_to_wml(html)
            body = encode_wmlc(deck)
            return MiddlewareResponse(status, WMLC_CONTENT_TYPE, body, {
                "translated": True, "origin_bytes": len(html),
                "cards": len(deck.cards), "delivered_bytes": len(body)})
        if self.kind == "i-mode":
            body = to_chtml(html).encode()
            return MiddlewareResponse(status, CHTML_CONTENT_TYPE, body,
                                      {"delivered_bytes": len(body)})
        body = f"{extract_title(html)}\n{strip_tags(html)}".encode()
        return MiddlewareResponse(status, CLIPPING_CONTENT_TYPE, body, {
            "origin_bytes": len(html), "clipped": True, "truncated": False,
            "compressed_bytes": len(zlib.compress(body, level=9)),
            "clipping_bytes": len(body),
            "wire_bytes": len(zlib.compress(body, level=9))})


@pytest.mark.parametrize("kind", KINDS)
def test_get_and_post_responses(kind):
    world = World(kind)
    assert world.get()["response"] == world.page(PAGE)
    box = world.start(lambda: world.session.post(
        "http://shop.example.com/order", {"user": "bob", "qty": "3"}))
    world.run()
    expected = ORDER.replace("ann", "bob").replace("2", "3")
    assert box["response"] == world.page(expected)
    assert world.session.stats.get("session_establishments") == 1
    assert world.session.stats.get("requests") == 2


@pytest.mark.parametrize("kind", KINDS)
def test_concurrent_callers_get_their_own_replies_in_order(kind):
    world = World(kind)
    first = world.start(lambda: world.session.get("http://shop.example.com/"))
    second = world.start(lambda: world.session.post(
        "http://shop.example.com/order", {"user": "cy", "qty": "1"}))
    world.run()
    assert first["response"] == world.page(PAGE)
    assert second["response"] == world.page(
        ORDER.replace("ann", "cy").replace("2", "1"))
    assert world.session.stats.get("session_establishments") == 1
    assert world.session.stats.get("requests") == 2


@pytest.mark.parametrize("kind", KINDS)
def test_timeout_aborts_and_the_next_request_reconnects(kind):
    world = World(kind)
    world.run(1.25)
    late = world.get("http://shop.example.com/slow", timeout=5.0)
    assert isinstance(late["error"], RequestTimeout)
    assert str(late["error"]) == ("no middleware response within 5s "
                                  "(http://shop.example.com/slow)")
    assert late["at"] == 1.25 + 5.0
    assert world.session.stats.get("request_timeouts") == 1
    assert world.session._conn is None

    # The reply to the abandoned request must not answer this one.
    assert world.get()["response"] == world.page(PAGE)
    assert world.session.stats.get("session_establishments") == 2
    assert world.session.stats.get("requests") == 2


@pytest.mark.parametrize("kind", KINDS)
def test_a_settled_request_leaves_nothing_queued(kind):
    """Neither the session's deadline nor the gateway's HTTP timers
    outlive the exchange."""
    world = World(kind)
    world.run(1.0)
    before = world.sim.queue_depth()
    box = world.start(lambda: world.session.get(
        "http://shop.example.com/", timeout=20.0))
    world.run(10.0)
    assert box["response"] == world.page(PAGE)
    assert world.sim.queue_depth() == before


@pytest.mark.parametrize("kind", KINDS)
def test_peer_hang_up_fails_with_the_protocol_message(kind):
    world = World(kind)
    assert world.get()["response"].ok
    box = world.start(
        lambda: world.session.get("http://shop.example.com/slow"))
    world.run(2.0)
    world.gateway.crash()
    world.run()
    assert isinstance(box["error"], ConnectionError)
    assert str(box["error"]) == f"{CLOSED[kind]} session closed"
    assert world.session.stats.get("request_timeouts") == 0


class OpenBreaker:
    retry_after = 7.5

    def allow(self) -> bool:
        return False


@pytest.mark.parametrize("kind", KINDS)
def test_open_breaker_503_surfaces_retry_after(kind):
    world = World(kind, breaker=OpenBreaker())
    response = world.get()["response"]
    assert response.status == 503
    assert response.meta["retry_after"] == 7.5
    assert response.content_type == "text/plain"
    role = {"i-mode": "centre", "Palm": "proxy"}.get(kind, "gateway")
    assert response.body == f"{role} circuit open".encode()
