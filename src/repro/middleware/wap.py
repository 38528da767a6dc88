"""WAP: the gateway and the device-side session (paper §5.1, Table 3).

"Requests from mobile stations are sent as a URL through the network to
the WAP Gateway; responses are sent from the Web server to the WAP
Gateway in HTML and are then translated in WML and sent to the mobile
stations."  That is literally the :class:`WAPGateway` request path:

    mobile --WSP--> gateway --DNS+HTTP--> origin web server
    mobile <--WMLC-- gateway <--HTML------ origin

Simplifications (documented per DESIGN.md): WSP/WTP run over our TCP
rather than WDP/UDP, and the session is one TCP connection per
:class:`WAPSession` — which preserves the property Table 3's benchmark
measures: WAP pays a gateway hop plus per-request translation, and
must *establish* a session before the first byte, while i-mode is
always-on.

The server plumbing (listener, serve loop, crash/restart, batching,
breaker-guarded origin fetch, content memo) is the shared
:class:`~repro.middleware.base.GatewayServer`, and the device side is
the shared :class:`~repro.middleware.base.ClientSession`.  This module
supplies what is WAP's own: the WTLS listener and client handshake,
the ``accept`` header on requests and its origin negotiation, the
``cache_ttl`` response cache and the HTML -> WML (-> WMLC) translation.
"""

from __future__ import annotations

from typing import Optional

from ..net.addressing import IPAddress
from ..net.dns import NameRegistry
from ..net.node import Node
from ..net.tcp import TCPConnection
from ..obs import end_span, start_span
from ..security.wtls import SecureChannel, SecurityError
from ..sim import RandomStream
from .adaptation import html_to_wml
from .base import ClientSession, GatewayServer, decode_obj, encode_obj
from .wml import WML_CONTENT_TYPE, WMLC_CONTENT_TYPE, encode_wmlc, parse_wml

__all__ = ["WAPGateway", "WAPSession", "WSP_PORT", "WTLS_PORT"]

WSP_PORT = 9201
WTLS_PORT = 9203  # WAP's registered secure-session port
TRANSLATION_TIME_PER_KB = 0.002  # HTML->WML transcoding CPU cost


def _wml_from_html(body: bytes, binary: bool) -> tuple:
    """(body, content type, cards) of an HTML page translated to WML."""
    document = html_to_wml(body.decode("utf-8", errors="replace"))
    if binary:
        return encode_wmlc(document), WMLC_CONTENT_TYPE, len(document.cards)
    return document.to_xml().encode(), WML_CONTENT_TYPE, len(document.cards)


def _wmlc_from_wml(body: bytes) -> bytes:
    return encode_wmlc(parse_wml(body.decode()))


class WAPGateway(GatewayServer):
    """The protocol translation point between wireless and wired worlds.

    A :class:`GatewayServer` speaking WSP frames, plus a WTLS listener
    when given an entropy stream and an optional GET response cache
    (``cache_ttl`` seconds; 0 disables it).
    """

    # Table 3 properties (cross-checked by the static model checker).
    markup = "WML"
    session_model = "gateway-session"
    payload_limit: Optional[int] = None
    role = "gateway"
    span_name = "wap.gateway"
    default_port = WSP_PORT
    # Negotiate: origins that author native WML serve it directly (no
    # transcoding); others fall back to HTML for translation.
    origin_headers = {"accept": f"{WML_CONTENT_TYPE}, text/html"}

    def __init__(self, node: Node, registry: NameRegistry,
                 port: Optional[int] = None,
                 entropy: Optional[RandomStream] = None,
                 wtls_port: int = WTLS_PORT,
                 cache_ttl: float = 0.0, **server):
        super().__init__(node, registry, port, **server)
        self.entropy = entropy
        self.wtls_port = wtls_port
        # Response cache for GETs (real gateways cached aggressively to
        # spare the air interface); 0 disables it.
        self.cache_ttl = cache_ttl
        self._cache: dict[tuple, tuple[float, dict]] = {}
        # WTLS: WAP's transport security layer, on its registered port.
        # Enabled only when the gateway is given an entropy stream.
        if entropy is not None:
            self._listen(wtls_port, self._serve_secure, "wtls_sessions")

    def _serve_secure(self, conn: TCPConnection):
        channel = SecureChannel(conn, self.entropy)
        try:
            yield channel.handshake_server()
        except SecurityError:
            self.stats.incr("wtls_handshake_failures")
            self._forget(conn)
            return
        while True:
            try:
                record = yield channel.recv()
            except SecurityError:
                self.stats.incr("wtls_record_failures")
                self._forget(conn)
                return
            if record == b"":
                self._forget(conn)
                return
            reply = yield from self._dispatch(decode_obj(record), conn)
            if reply is None:
                return
            channel.send(encode_obj(reply))

    def _respond(self, request: dict, span):
        method, url, _body = self._fields(request)
        cache_key = (method, url, request.get("accept", ""))
        if self.cache_ttl > 0 and method == "GET":
            cached = self._cache.get(cache_key)
            if cached is not None and \
                    self.sim.now - cached[0] <= self.cache_ttl:
                self.stats.incr("cache_hits")
                reply = dict(cached[1])
                reply["meta"] = dict(reply.get("meta", {}), cache_hit=True)
                return reply
        reply = yield from super()._respond(request, span)
        if self.cache_ttl > 0 and method == "GET" and \
                reply.get("status") == 200:
            self._cache[cache_key] = (self.sim.now, reply)
        return reply

    def _translate(self, request: dict, response, parent=None):
        """HTML -> WML (-> WMLC) translation of the origin response."""
        span = None
        if parent is not None:
            span = start_span(self.sim, "wap.translate", "middleware",
                              parent=parent)
        content_type = response.content_type
        body = response.body
        meta = {"translated": False, "origin_bytes": len(body)}
        retry_after = response.headers.get("retry-after")
        if retry_after is not None:
            # Backpressure hints survive translation so device-side
            # retry policies can honour them.
            meta["retry_after"] = float(retry_after)
        wants_binary = request.get("accept", WMLC_CONTENT_TYPE) == \
            WMLC_CONTENT_TYPE

        if "text/html" in content_type:
            # The transcoding CPU cost is charged whether or not the
            # memo hits: it saves host time, never virtual time.
            yield self.sim.timeout(
                TRANSLATION_TIME_PER_KB * max(1, len(body) // 1024)
            )
            body, content_type, cards = self._memo(_wml_from_html, body,
                                                   wants_binary)
            meta["translated"] = True
            meta["cards"] = cards
            self.stats.incr("translations")
            if wants_binary:
                self.stats.incr("wmlc_encodings")
        elif content_type == WML_CONTENT_TYPE and wants_binary:
            body = self._memo(_wmlc_from_wml, body)
            content_type = WMLC_CONTENT_TYPE
            self.stats.incr("wmlc_encodings")

        meta["delivered_bytes"] = len(body)
        end_span(self.sim, span, translated=meta["translated"],
                 delivered_bytes=len(body))
        return {"status": response.status, "content_type": content_type,
                "body": body, "meta": meta}

    _transform = _translate


class _Records:
    """WTLS keeps record boundaries: each record is one whole reply."""

    @staticmethod
    def feed(record: bytes) -> list[dict]:
        return [decode_obj(record)]


class WAPSession(ClientSession):
    """Device-side WSP session to a gateway, optionally over WTLS."""

    middleware_name = "WAP"
    session_model = "gateway-session"
    span_prefix = "wsp"
    protocol = "WSP"
    default_port = WSP_PORT
    _failures = (SecurityError,)

    def __init__(self, node: Node, gateway_address: IPAddress,
                 port: Optional[int] = None,
                 accept: str = WMLC_CONTENT_TYPE,
                 secure: bool = False,
                 entropy: Optional[RandomStream] = None):
        if secure and entropy is None:
            raise ValueError("secure WAP sessions need an entropy stream")
        self.secure = secure
        self.entropy = entropy
        self.accept = accept
        if secure:
            self.protocol = "WTLS"
            self.default_port = WTLS_PORT
            self._encode = encode_obj
            self._decoder = _Records
        super().__init__(node, gateway_address, port)

    def _handshake(self):
        if self.secure:
            self._link = SecureChannel(self._conn, self.entropy)
            yield self._link.handshake_client()
            self.stats.incr("wtls_handshakes")

    def _request(self, method: str, url: str, body: Optional[bytes]) -> dict:
        request = {"method": method, "url": url, "accept": self.accept}
        if body is not None:
            request["body"] = body
        return request
