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

The centre is a :class:`~repro.middleware.base.GatewayServer` and the
handset side a :class:`~repro.middleware.base.ClientSession`; this
module supplies their HTTP wire codec, the centre's error replies and
the cHTML adaptation.
"""

from __future__ import annotations

from typing import Optional

from ..obs import end_span, start_span
from ..web.http import HTTPRequest, HTTPResponse, RequestParser, ResponseParser
from .base import ClientSession, GatewayServer, response_from_http
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


class IModeSession(ClientSession):
    """A subscriber's always-on HTTP connection to the i-mode centre."""

    middleware_name = "i-mode"
    session_model = "always-on"
    span_prefix = "imode"
    protocol = "i-mode"
    default_port = IMODE_PORT
    _decoder = ResponseParser
    _encode = staticmethod(HTTPRequest.encode)
    _response = staticmethod(response_from_http)

    def _request(self, method: str, url: str,
                 body: Optional[bytes]) -> HTTPRequest:
        headers = {"connection": "keep-alive"}
        if body is None:
            return HTTPRequest(method, url, headers)
        headers["content-type"] = "application/x-www-form-urlencoded"
        return HTTPRequest(method, url, headers, body=body)
