"""A small HTTP client used by gateways, browsers-by-proxy and tests."""

from __future__ import annotations

from typing import Optional

from ..net.addressing import IPAddress
from ..net.node import Node
from ..net.tcp import tcp_stack
from ..sim import Event
from .http import HTTPRequest, HTTPResponse, ResponseParser

__all__ = ["HTTPClient"]


class HTTPClient:
    """One-request-per-connection HTTP client bound to a node."""

    def __init__(self, node: Node):
        self.node = node
        self.sim = node.sim
        self.tcp = tcp_stack(node)

    def request(self, server: IPAddress, req: HTTPRequest,
                port: int = 80, timeout: float = 30.0, trace=None) -> Event:
        """Event yielding the HTTPResponse, or None on timeout.

        ``trace`` (a TraceContext) propagates observability context: it
        is stamped on the connection, rides every packet as metadata
        (zero wire bytes — tracing must not perturb what it measures),
        and the server recovers it from the arriving segments.
        """
        result = self.sim.event()

        def exchange(env):
            conn = self.tcp.connect(server, port)
            conn.trace = trace
            expiry = env.timeout(timeout)
            race = yield env.any_of([conn.established_event, expiry])
            expiry.cancel()  # a no-op once it has fired
            if conn.established_event not in race:
                result.succeed(None)
                return
            conn.send(req.encode())
            parser = ResponseParser()
            deadline = env.timeout(timeout)
            while True:
                chunk_ev = conn.recv()
                got = yield env.any_of([chunk_ev, deadline])
                if chunk_ev not in got:
                    result.succeed(None)
                    return
                chunk = got[chunk_ev]
                if chunk == b"":
                    deadline.cancel()
                    result.succeed(None)
                    return
                responses = parser.feed(chunk)
                if responses:
                    deadline.cancel()
                    conn.close()
                    result.succeed(responses[0])
                    return

        self.sim.spawn(exchange(self.sim), name="http-client")
        return result

    def get(self, server: IPAddress, path: str, port: int = 80,
            headers: Optional[dict] = None, timeout: float = 30.0,
            trace=None) -> Event:
        req = HTTPRequest("GET", path, headers=headers or {})
        return self.request(server, req, port=port, timeout=timeout,
                            trace=trace)

    def post(self, server: IPAddress, path: str, body: bytes,
             content_type: str = "application/x-www-form-urlencoded",
             port: int = 80, headers: Optional[dict] = None,
             timeout: float = 30.0, trace=None) -> Event:
        merged = dict(headers or {})
        merged["content-type"] = content_type
        req = HTTPRequest("POST", path, headers=merged, body=body)
        return self.request(server, req, port=port, timeout=timeout,
                            trace=trace)
