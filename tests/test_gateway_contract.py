"""One contract for every gateway: WAP gateway, i-mode centre, Palm proxy.

Each case drives the server over its own wire protocol from a raw TCP
client and compares the exact bytes it sends back.  A reply's size sets
its air time on the radio, so two gateways that agree on the status
but not on the bytes would not produce the same simulation.
"""

import pytest

from repro.middleware import (
    FrameReader,
    IModeCenter,
    WAPGateway,
    WebClippingProxy,
    encode_frame,
)
from repro.middleware.base import RETRY_FLOOR, TRANSLATION_MEMO_SIZE
from repro.net import NameRegistry, Network, Subnet
from repro.net.tcp import tcp_stack
from repro.sim import Simulator
from repro.web import WebServer
from repro.web.http import HTTPRequest, HTTPResponse, ResponseParser

PAGE = ("<html><head><title>Shop</title></head><body>"
        "<table><tr><td>Phones and cases.</td></tr></table>"
        "<p>Mobile commerce catalog.</p></body></html>")

# kind -> (gateway class, role word in its replies)
GATEWAYS = {
    "WAP": (WAPGateway, "gateway"),
    "i-mode": (IModeCenter, "centre"),
    "Palm": (WebClippingProxy, "proxy"),
}
KINDS = sorted(GATEWAYS)


class StubBreaker:
    """Breaker double: a fixed verdict and Retry-After, counted outcomes."""

    def __init__(self, allow: bool = True, retry_after: float = 7.5):
        self.allowed = allow
        self.retry_after = retry_after
        self.failures = 0
        self.successes = 0

    def allow(self) -> bool:
        return self.allowed

    def record_failure(self) -> None:
        self.failures += 1

    def record_success(self) -> None:
        self.successes += 1


class World:
    """Origin web server, the gateway host and a phone, all wired."""

    def __init__(self, kind: str, **gateway_kwargs):
        self.kind = kind
        self.sim = Simulator()
        net = Network(self.sim)
        origin = net.add_node("origin")
        self.node = net.add_node("gateway", forwarding=True)
        self.phone = net.add_node("phone")
        net.connect(origin, self.node, Subnet.parse("10.0.1.0/24"),
                    delay=0.005)
        net.connect(self.node, self.phone, Subnet.parse("10.0.2.0/24"),
                    bandwidth_bps=100_000, delay=0.05)
        net.build_routes()
        registry = NameRegistry()
        registry.register("shop.example.com", origin.primary_address)
        self.server = WebServer(origin)
        self.server.add_page("/", PAGE)
        cls, self.role = GATEWAYS[kind]
        self.gateway = cls(self.node, registry, **gateway_kwargs)

    def request(self, url: str):
        """The request object the gateway's serve loop hands its handler."""
        if self.kind == "i-mode":
            return HTTPRequest("GET", url, {"connection": "keep-alive"})
        return {"method": "GET", "url": url}

    def get(self, url: str) -> bytes:
        """Raw reply bytes for one GET (b"" if the gateway hangs up)."""
        request = self.request(url)
        payload = (request.encode() if self.kind == "i-mode"
                   else encode_frame(request))
        decoder = ResponseParser() if self.kind == "i-mode" else FrameReader()
        conn = tcp_stack(self.phone).connect(self.node.primary_address,
                                             self.gateway.port)
        received = []

        def client(env):
            yield conn.established_event
            conn.send(payload)
            while True:
                chunk = yield conn.recv()
                if chunk == b"":
                    return
                received.append(chunk)
                if decoder.feed(chunk):
                    return

        self.sim.spawn(client(self.sim), name="contract-client")
        self.sim.run(until=self.sim.now + 60)
        conn.close()
        return b"".join(received)

    def status(self, raw: bytes) -> int:
        decoder = ResponseParser() if self.kind == "i-mode" else FrameReader()
        (reply,) = decoder.feed(raw)
        return reply.status if self.kind == "i-mode" else reply["status"]

    def on_wire(self, reply) -> bytes:
        """The bytes the serve loop would send for a handler reply."""
        if self.kind == "i-mode":
            headers = dict(reply.headers, connection="keep-alive")
            return HTTPResponse(reply.status, headers, reply.body).encode()
        return encode_frame(reply)

    def error(self, status: int, message: str, retry_after=None) -> bytes:
        """A gateway-originated error reply, in this gateway's shape.

        Palm's own error frames carry no content type; its batcher
        replies do (see :meth:`shed`).
        """
        if self.kind == "i-mode":
            return self.shed(status, message, retry_after)
        reply = {"status": status}
        if self.kind == "WAP":
            reply["content_type"] = "text/plain"
        reply["body"] = message.encode()
        reply["meta"] = ({} if retry_after is None
                         else {"retry_after": retry_after})
        return encode_frame(reply)

    def shed(self, status: int, message: str, retry_after=None) -> bytes:
        """A batcher-originated reply (shed or crash rejection)."""
        if self.kind == "i-mode":
            headers = {"content-type": "text/plain"}
            if retry_after is not None:
                headers["retry-after"] = f"{retry_after:g}"
            headers["connection"] = "keep-alive"
            return HTTPResponse(status, headers, message).encode()
        meta = {} if retry_after is None else {"retry_after": retry_after}
        return encode_frame({"status": status, "content_type": "text/plain",
                             "body": message.encode(), "meta": meta})


@pytest.mark.parametrize("kind", KINDS)
def test_bad_url_is_400(kind):
    world = World(kind)
    assert world.get("/relative/only") == world.error(
        400, "URL '/relative/only' has no host")


@pytest.mark.parametrize("kind", KINDS)
def test_unresolved_host_is_502(kind):
    world = World(kind)
    assert world.get("http://nowhere.example.com/") == world.error(
        502, "cannot resolve nowhere.example.com")
    assert world.gateway.stats.get("dns_failures") == 1


@pytest.mark.parametrize("kind", KINDS)
def test_open_breaker_is_503_with_retry_after(kind):
    breaker = StubBreaker(allow=False, retry_after=7.5)
    world = World(kind, breaker=breaker)
    assert world.get("http://shop.example.com/") == world.error(
        503, f"{world.role} circuit open", 7.5)
    assert world.gateway.stats.get("breaker_rejections") == 1
    assert world.server.stats.get("requests") == 0


@pytest.mark.parametrize("kind", KINDS)
def test_dead_origin_is_504_and_a_breaker_failure(kind):
    breaker = StubBreaker()
    world = World(kind, breaker=breaker, origin_timeout=2.0)
    world.server.crash()
    assert world.get("http://shop.example.com/") == world.error(
        504, "origin timeout")
    assert world.gateway.stats.get("origin_timeouts") == 1
    assert (breaker.failures, breaker.successes) == (1, 0)


@pytest.mark.parametrize("kind", KINDS)
def test_crash_rejects_pending_closes_and_flushes_then_restart_serves(kind):
    world = World(kind, batching=True)
    page = world.get("http://shop.example.com/")
    assert world.status(page) == 200
    assert len(world.gateway._translations) == 1

    pending = world.gateway.batcher.submit(
        world.request("http://shop.example.com/"))
    world.gateway.crash()
    assert world.on_wire(pending.value) == world.shed(
        503, f"{world.role} crashed", RETRY_FLOOR)
    assert world.gateway.is_down
    assert len(world.gateway._translations) == 0
    assert world.get("http://shop.example.com/") == b""  # hung up on

    world.gateway.restart()
    assert world.get("http://shop.example.com/") == page
    assert world.gateway.stats.get("crashes") == 1
    assert world.gateway.stats.get("restarts") == 1


@pytest.mark.parametrize("kind", KINDS)
def test_repeated_page_is_one_cache_hit(kind):
    world = World(kind)
    first = world.get("http://shop.example.com/")
    assert world.gateway.translation_cache_hits == 0
    assert world.get("http://shop.example.com/") == first
    assert world.gateway.translation_cache_hits == 1


@pytest.mark.parametrize("kind", KINDS)
def test_memo_is_bounded_and_keeps_a_hot_body(kind):
    gateway = World(kind).gateway

    def transform(body):
        return (body.upper(),)

    hot = b"catalog deck"
    cold = 0
    for _ in range(8):
        assert gateway._memo(transform, hot) == (hot.upper(),)
        for _ in range(TRANSLATION_MEMO_SIZE // 2):
            cold += 1
            gateway._memo(transform, b"order %d" % cold)
            assert len(gateway._translations) <= TRANSLATION_MEMO_SIZE
    # 4 * TRANSLATION_MEMO_SIZE distinct cold bodies went by, and the hot
    # body hit on every visit after its first.
    assert len(gateway._translations) == TRANSLATION_MEMO_SIZE
    assert gateway.translation_cache_hits == 7
