"""Direct (wired) HTTP access presented as a MiddlewareSession.

Electronic-commerce clients (Figure 1's desktop computers) reach the
host over plain HTTP with no middleware.  Wrapping that access in the
:class:`MiddlewareSession` interface keeps application code identical
across EC and MC systems — the paper's program/data-independence
requirement, demonstrated rather than asserted.
"""

from __future__ import annotations

from typing import Optional
from urllib.parse import urlencode

from ..net.dns import NameRegistry
from ..net.node import Node
from ..obs import ctx_of, end_span, start_span
from ..sim import Counter, Event
from ..web.client import HTTPClient
from .base import (
    MiddlewareResponse,
    MiddlewareSession,
    RequestTimeout,
    response_from_http,
    split_url,
)

__all__ = ["DirectHTTPSession"]

DEFAULT_HTTP_TIMEOUT = 30.0


class DirectHTTPSession(MiddlewareSession):
    """No-middleware client access for wired (EC) clients."""

    middleware_name = "direct-http"
    session_model = "request-response"

    def __init__(self, node: Node, registry: NameRegistry):
        self.node = node
        self.sim = node.sim
        self.registry = registry
        self.http = HTTPClient(node)
        self.stats = Counter()

    def get(self, url: str, trace=None,
            timeout: Optional[float] = None) -> Event:
        return self._fetch("GET", url, None, trace=trace, timeout=timeout)

    def post(self, url: str, form: dict, trace=None,
             timeout: Optional[float] = None) -> Event:
        return self._fetch("POST", url, urlencode(form).encode(),
                           trace=trace, timeout=timeout)

    def _fetch(self, method: str, url: str, body, trace=None,
               timeout: Optional[float] = None) -> Event:
        result = self.sim.event()
        span = None
        if trace is not None:
            span = start_span(self.sim, "http.request", "wired",
                              parent=trace, url=url)
        # An explicit per-request timeout reaches HTTPClient.request and
        # surfaces as RequestTimeout; the legacy default keeps the old
        # 504-response shape for callers that never opted in.
        explicit = timeout is not None
        http_timeout = timeout if explicit else DEFAULT_HTTP_TIMEOUT

        def go(env):
            try:
                try:
                    host, path = split_url(url)
                except ValueError as exc:
                    result.fail(exc)
                    return
                origin = self.registry.lookup(host)
                if origin is None:
                    result.succeed(MiddlewareResponse(
                        status=502, content_type="text/plain",
                        body=f"cannot resolve {host}".encode()))
                    return
                self.stats.incr("requests")
                if method == "POST":
                    response = yield self.http.post(origin, path, body,
                                                    timeout=http_timeout,
                                                    trace=ctx_of(span))
                else:
                    response = yield self.http.get(origin, path,
                                                   timeout=http_timeout,
                                                   trace=ctx_of(span))
                if response is None:
                    if explicit:
                        self.stats.incr("request_timeouts")
                        result.fail(RequestTimeout(
                            f"no HTTP response within {http_timeout:g}s "
                            f"({url})"))
                        return
                    result.succeed(MiddlewareResponse(
                        status=504, content_type="text/plain",
                        body=b"timeout"))
                    return
                result.succeed(response_from_http(response))
            finally:
                end_span(self.sim, span)

        self.sim.spawn(go(self.sim), name="direct-http")
        return result

    def close(self) -> None:
        pass
