"""i-mode: the always-on packet Internet service (paper §5.1, Table 3).

Where WAP is "a protocol" with a translating gateway, i-mode is "a
complete mobile Internet service": phones keep an always-on packet
session to the i-mode centre, which proxies ordinary HTTP to content
providers and serves cHTML ("TCP/IP modifications" rather than a new
stack).  The centre adapts legacy HTML to compact HTML; content
authored as cHTML passes through untouched.

The contrast the Table 3 benchmark measures falls out of the two
implementations: an :class:`IModeSession` holds one persistent
keep-alive connection (no per-request session establishment) and the
centre does cheap tag-stripping instead of full WML transcoding.

The centre is a :class:`~repro.middleware.base.GatewayServer`; this
module supplies its HTTP wire codec and error replies and the cHTML
adaptation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional
from urllib.parse import urlencode

from ..net.addressing import IPAddress
from ..net.node import Node
from ..net.tcp import TCPConnection, TCPStack, tcp_stack
from ..obs import end_span, start_span
from ..sim import Counter, Event, Interrupt
from ..web.http import HTTPRequest, HTTPResponse, RequestParser, ResponseParser
from .base import (
    GatewayServer,
    MiddlewareResponse,
    MiddlewareSession,
    guard_timeout,
)
from .chtml import CHTML_CONTENT_TYPE, is_compact, to_chtml

__all__ = ["IModeCenter", "IModeSession", "IMODE_PORT"]

IMODE_PORT = 8700
ADAPTATION_TIME_PER_KB = 0.000_5  # tag stripping is cheap


def _http_reply(status: int, message: str,
                retry_after: Optional[float] = None) -> HTTPResponse:
    """Centre-originated shed/error reply (HTTP wire shape)."""
    headers = {"content-type": "text/plain"}
    if retry_after is not None:
        headers["retry-after"] = f"{retry_after:g}"
    return HTTPResponse(status, headers, message)


def _adaptation(body: bytes) -> tuple:
    """(already compact?, cHTML body or None) for an HTML page."""
    text = body.decode("utf-8", errors="replace")
    compact = is_compact(text)
    return compact, None if compact else to_chtml(text).encode()


class IModeCenter(GatewayServer):
    """NTT DoCoMo's packet-gateway-plus-portal, as an HTTP proxy.

    A :class:`GatewayServer` speaking HTTP to its subscribers.
    """

    # Table 3 properties (cross-checked by the static model checker).
    markup = "cHTML"
    session_model = "always-on"
    payload_limit: Optional[int] = None
    role = "centre"
    span_name = "imode.center"
    default_port = IMODE_PORT
    _decoder = RequestParser
    _reply = staticmethod(_http_reply)

    @staticmethod
    def _encode(response: HTTPResponse) -> bytes:
        response.headers["connection"] = "keep-alive"
        return response.encode()

    @staticmethod
    def _fields(request: HTTPRequest) -> tuple:
        return request.method, request.path, request.body

    def _adapt(self, request: HTTPRequest, upstream: HTTPResponse,
               parent=None):
        """HTML -> cHTML adaptation; compact pages pass through."""
        span = None
        if parent is not None:
            span = start_span(self.sim, "imode.adapt", "middleware",
                              parent=parent)
        content_type = upstream.content_type
        body = upstream.body
        if "text/html" in content_type:
            compact, adapted = self._memo(_adaptation, body)
            if compact:
                self.stats.incr("passthrough")
            else:
                # Adaptation CPU cost is charged on memo hits too: it
                # saves host time, never virtual time.
                yield self.sim.timeout(
                    ADAPTATION_TIME_PER_KB * max(1, len(body) // 1024)
                )
                body = adapted
                self.stats.incr("adaptations")
            content_type = CHTML_CONTENT_TYPE
        end_span(self.sim, span, delivered_bytes=len(body))
        headers = {"content-type": content_type}
        retry_after = upstream.headers.get("retry-after")
        if retry_after is not None:
            # Keep the origin's backpressure hint for the handset.
            headers["retry-after"] = retry_after
        return HTTPResponse(upstream.status, headers, body)

    _transform = _adapt


class IModeSession(MiddlewareSession):
    """A subscriber's always-on connection to the i-mode centre."""

    middleware_name = "i-mode"
    session_model = "always-on"

    def __init__(self, node: Node, center_address: IPAddress,
                 port: int = IMODE_PORT, tcp: Optional[TCPStack] = None):
        self.node = node
        self.sim = node.sim
        self.center_address = center_address
        self.port = port
        self.tcp = tcp or tcp_stack(node)
        self.stats = Counter()
        self._conn: Optional[TCPConnection] = None
        self._parser = ResponseParser()
        self._responses: Deque[HTTPResponse] = deque()
        # Serialise concurrent callers on the always-on connection.
        from ..sim import Resource
        self._mutex = Resource(self.sim, capacity=1)

    def _ensure_connected(self):
        if self._conn is not None and \
                self._conn.state == TCPConnection.ESTABLISHED:
            return
        self._conn = self.tcp.connect(self.center_address, self.port)
        self.stats.incr("session_establishments")
        yield self._conn.established_event

    def get(self, url: str, trace=None,
            timeout: Optional[float] = None) -> Event:
        request = HTTPRequest("GET", url, {"connection": "keep-alive"})
        return self._roundtrip(request, trace=trace, timeout=timeout)

    def post(self, url: str, form: dict, trace=None,
             timeout: Optional[float] = None) -> Event:
        request = HTTPRequest(
            "POST", url,
            {"connection": "keep-alive",
             "content-type": "application/x-www-form-urlencoded"},
            body=urlencode(form).encode(),
        )
        return self._roundtrip(request, trace=trace, timeout=timeout)

    def _roundtrip(self, request: HTTPRequest, trace=None,
                   timeout: Optional[float] = None) -> Event:
        result = self.sim.event()
        span = None
        if trace is not None:
            span = start_span(self.sim, "imode.request", "middleware",
                              parent=trace, url=request.path)

        def exchange(env):
            grant = self._mutex.request()
            try:
                yield grant
                yield from self._ensure_connected()
                if span is not None:
                    self._conn.trace = span.context()
                self._conn.send(request.encode())
                self.stats.incr("requests")
                while not self._responses:
                    chunk = yield self._conn.recv()
                    if chunk == b"":
                        result.fail(ConnectionError("i-mode session closed"))
                        return
                    self._responses.extend(self._parser.feed(chunk))
                response = self._responses.popleft()
                meta = {"delivered_bytes": len(response.body)}
                retry_after = response.headers.get("retry-after")
                if retry_after is not None:
                    meta["retry_after"] = float(retry_after)
                result.succeed(MiddlewareResponse(
                    status=response.status,
                    content_type=response.content_type,
                    body=response.body,
                    meta=meta,
                ))
            except Interrupt as exc:
                self.stats.incr("request_timeouts")
                self._abort()
                if not result.triggered:
                    result.fail(exc.cause if isinstance(exc.cause, Exception)
                                else ConnectionError("request interrupted"))
            finally:
                if grant.triggered:
                    self._mutex.release(grant)
                else:
                    grant.cancel()
                end_span(self.sim, span)

        proc = self.sim.spawn(exchange(self.sim), name="imode-get")
        guard_timeout(self.sim, result, proc, timeout, detail=request.path)
        return result

    def _abort(self) -> None:
        self.close()
        self._parser = ResponseParser()
        self._responses.clear()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
