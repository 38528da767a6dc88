"""Palm Web Clipping: the third middleware of Table 3's ecosystem.

The paper's usage figures (§5.1): "60% of the world's wireless Internet
users were using i-mode, 39% were using WAP, and 1% were using Palm
middleware."  That 1% is Palm's *Web Clipping* system: instead of
translating protocols (WAP) or adapting markup (i-mode), a clipping
proxy strips pages down to pre-digested plain text "clippings" and
ships them zlib-compressed — built for the Palm VII's tiny screens and
slow Mobitex radios, and a natural fit for the Palm i705 in Table 2.

Implemented as a third :class:`~repro.middleware.base.MiddlewareSession`
so the interoperability matrix covers it like the other two.  The proxy
is a :class:`~repro.middleware.base.GatewayServer` and the device side
a :class:`~repro.middleware.base.ClientSession`, both speaking WAP's
frames; this module supplies the proxy's error frames, the clipping
and its decompression on arrival.
"""

from __future__ import annotations

import zlib
from typing import Optional

from ..net.dns import NameRegistry
from ..net.node import Node
from ..obs import end_span, start_span
from .adaptation import extract_title, strip_tags
from .base import ClientSession, GatewayServer, MiddlewareResponse

__all__ = ["WebClippingProxy", "PalmSession", "CLIPPING_PORT",
           "CLIPPING_CONTENT_TYPE", "CLIPPING_BYTE_LIMIT"]

CLIPPING_PORT = 5002
CLIPPING_CONTENT_TYPE = "text/x-palm-clipping"
CLIPPING_BYTE_LIMIT = 1024  # the Palm VII-era hard ceiling per clipping
CLIPPING_TIME_PER_KB = 0.001


def _clipping(body: bytes, byte_limit: int) -> tuple:
    """(zlib payload, clipping bytes, truncated?) for an HTML page."""
    html = body.decode("utf-8", errors="replace")
    title = extract_title(html)
    text = strip_tags(html)
    clipping = (f"{title}\n{text}" if title else text).encode()
    raw = clipping[:byte_limit]
    return zlib.compress(raw, level=9), len(raw), len(clipping) > byte_limit


class WebClippingProxy(GatewayServer):
    """The clipping server: fetch, strip, truncate, compress.

    A :class:`GatewayServer` speaking the same frames as WAP.
    """

    # Table 3 properties (cross-checked by the static model checker).
    markup = "web-clipping"
    session_model = "request-response"
    role = "proxy"
    span_name = "palm.proxy"
    default_port = CLIPPING_PORT

    def __init__(self, node: Node, registry: NameRegistry,
                 port: Optional[int] = None,
                 byte_limit: int = CLIPPING_BYTE_LIMIT, **server):
        super().__init__(node, registry, port, **server)
        self.byte_limit = byte_limit

    @property
    def payload_limit(self) -> int:
        return self.byte_limit

    @staticmethod
    def _error(status: int, message: str,
               retry_after: Optional[float] = None) -> dict:
        """Proxy error frames carry no content type (shed replies do)."""
        meta = {} if retry_after is None else {"retry_after": retry_after}
        return {"status": status, "body": message.encode(), "meta": meta}

    def _clip(self, request: dict, response, parent=None):
        """Strip an HTML page to a truncated, compressed clipping."""
        body = response.body
        meta = {"origin_bytes": len(body), "clipped": False}
        retry_after = response.headers.get("retry-after")
        if retry_after is not None:
            meta["retry_after"] = float(retry_after)
        if "text/html" not in response.content_type:
            # Non-HTML passes through uncompressed (rare for Palm-era use).
            return {"status": response.status, "body": body,
                    "content_type": response.content_type, "meta": meta}
        clip_span = None
        if parent is not None:
            clip_span = start_span(self.sim, "palm.clip", "middleware",
                                   parent=parent)
        # Clipping CPU cost is charged whether or not the memo hits: it
        # saves host time, never virtual time.
        yield self.sim.timeout(
            CLIPPING_TIME_PER_KB * max(1, len(body) // 1024))
        payload, raw_len, truncated = self._memo(_clipping, body,
                                                 self.byte_limit)
        meta.update(clipped=True, truncated=truncated)
        self.stats.incr("clippings")
        meta["compressed_bytes"] = len(payload)
        meta["clipping_bytes"] = raw_len
        end_span(self.sim, clip_span, clipping_bytes=raw_len)
        return {"status": response.status, "body": payload,
                "content_type": CLIPPING_CONTENT_TYPE, "meta": meta}

    _transform = _clip


class PalmSession(ClientSession):
    """Device-side clipping client (decompresses on arrival)."""

    middleware_name = "Palm Web Clipping"
    session_model = "request-response"
    span_prefix = "clip"
    protocol = "clipping"
    default_port = CLIPPING_PORT

    @staticmethod
    def _response(frame: dict) -> MiddlewareResponse:
        body = frame.get("body", b"")
        content_type = frame.get("content_type", "text/plain")
        meta = frame.get("meta", {})
        if content_type == CLIPPING_CONTENT_TYPE and meta.get("clipped"):
            meta["wire_bytes"] = len(body)
            body = zlib.decompress(body)
        return MiddlewareResponse(status=frame.get("status", 0),
                                  content_type=content_type, body=body,
                                  meta=meta)
