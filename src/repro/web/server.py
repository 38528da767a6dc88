"""The web server: component "Web servers" of the host computer (§7).

Serves static pages and CGI programs over TCP, with sessions and an
Apache-style worker pool (limited concurrency).  The three features
the paper explicitly credits Apache with are all here:

* "highly configurable error messages" — :meth:`WebServer.set_error_body`;
* "DBM-based authentication databases" — :meth:`WebServer.protect`
  (HTTP Basic auth against the host's :class:`~repro.security.auth.UserStore`);
* "content negotiation" — :meth:`WebServer.add_page` accepts multiple
  variants per path and serves the one matching the request's Accept
  header.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..db.server import TracedDatabaseClient
from ..net.node import Node
from ..net.tcp import TCPConnection, tcp_stack
from ..obs import ctx_of, end_span, start_span
from ..security.auth import AuthenticationError
from ..sim import Counter, Interrupt, Resource, SimulationError
from .cgi import CGIContext, CGIRegistry
from .http import HTTPParseError, HTTPRequest, HTTPResponse, RequestParser
from .sessions import SessionStore

__all__ = ["WebServer", "DEFAULT_HTTP_PORT", "ACCESS_LOG_SIZE"]

DEFAULT_HTTP_PORT = 80
REQUEST_SERVICE_TIME = 0.001  # static-content handling cost
# The access log keeps the most recent entries only; ``stats`` counts
# every request.
ACCESS_LOG_SIZE = 256


class WebServer:
    """An HTTP server bound to a node."""

    def __init__(
        self,
        node: Node,
        port: int = DEFAULT_HTTP_PORT,
        workers: int = 16,
        database=None,
        transactions=None,
    ):
        self.node = node
        self.sim = node.sim
        self.port = port
        self.tcp = tcp_stack(node)
        self.cgi = CGIRegistry()
        self.sessions = SessionStore(self.sim)
        self.database = database
        self.transactions = transactions
        # Host-side services (payment processor, user store, ...) that
        # application programs reach through ctx.server.services.
        self.services: dict = {}
        self.stats = Counter()
        # Apache-style access log: (time, client, method, path, status,
        # response bytes), the last ACCESS_LOG_SIZE requests.  The
        # client is the connection's IPAddress, one object per host
        # shared by all its entries.
        self.access_log: deque[tuple] = deque(maxlen=ACCESS_LOG_SIZE)
        self.workers = Resource(self.sim, capacity=workers)
        # path -> list of (content_type, body) variants, in registration
        # order (the first variant is the default).
        self._static: dict[str, list[tuple[str, bytes]]] = {}
        self._error_bodies: dict[int, bytes] = {}
        # path prefix -> realm name (HTTP Basic auth).
        self._protected: dict[str, str] = {}
        # Admission control (off unless enable_load_shedding is called):
        # when the worker pool is saturated and the queue has grown past
        # the backlog, new requests are shed with 503 + Retry-After
        # instead of waiting unboundedly.
        self._shed_backlog: Optional[int] = None
        self._shed_retry_after = 1.0
        self._shed_jitter = 0.0
        self._shed_stream = None
        self.is_down = False
        self._conns: list[TCPConnection] = []
        self._listener = self.tcp.listen(port)
        self.sim.spawn(self._accept_loop(), name=f"httpd@{node.name}")

    # -- content registration -----------------------------------------------
    def add_page(self, path: str, body, content_type: str = "text/html") \
            -> None:
        """Register a static page (or another variant of an existing one).

        Registering several content types for one path enables content
        negotiation: the served variant is chosen by the request's
        Accept header, defaulting to the first registered.
        """
        if isinstance(body, str):
            body = body.encode()
        variants = self._static.setdefault(path, [])
        variants[:] = [v for v in variants if v[0] != content_type]
        variants.append((content_type, body))

    def protect(self, path_prefix: str, realm: str = "restricted") -> None:
        """Require HTTP Basic credentials (from services['users']) below
        ``path_prefix`` — the paper's "DBM-based authentication
        databases" feature."""
        if "users" not in self.services:
            raise RuntimeError(
                "protect() needs a UserStore in services['users']"
            )
        self._protected[path_prefix] = realm

    def mount(self, path: str, handler: Callable, name: str = "") -> None:
        """Mount a CGI program."""
        self.cgi.mount(path, handler, name=name)

    def set_error_body(self, status: int, body) -> None:
        """Configure a custom error page (the Apache feature)."""
        if isinstance(body, str):
            body = body.encode()
        self._error_bodies[status] = body

    # -- resilience knobs ---------------------------------------------------
    def enable_load_shedding(self, backlog: int = 16,
                             retry_after: float = 1.0,
                             jitter: float = 0.0, stream=None) -> None:
        """Shed requests with 503 + Retry-After once ``backlog`` callers
        are already queued behind a saturated worker pool.

        ``retry_after`` is the base hint; the actual header scales with
        the live worker-queue depth (a deeper queue tells clients to
        stay away longer) and, when ``jitter`` > 0 and a seeded
        ``stream`` is supplied, is spread by ±``jitter`` so shed
        clients do not retry in lockstep and re-stampede.
        """
        if backlog < 0:
            raise ValueError(f"backlog must be >= 0, got {backlog}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self._shed_backlog = backlog
        self._shed_retry_after = retry_after
        self._shed_jitter = jitter
        self._shed_stream = stream

    def _shed_hint(self) -> float:
        """Depth-proportional Retry-After for a shed response."""
        depth = self.workers.queue_length
        hint = self._shed_retry_after * (
            1.0 + depth / (self._shed_backlog + 1.0))
        if self._shed_stream is not None and self._shed_jitter > 0:
            hint *= 1.0 + self._shed_jitter * (
                2.0 * self._shed_stream.random() - 1.0)
        return round(hint, 6)

    def crash(self) -> None:
        """Hard-stop the server: drop live connections, refuse new ones."""
        self.is_down = True
        self.stats.incr("crashes")
        for conn in list(self._conns):
            conn.close()
        self._conns.clear()

    def restart(self) -> None:
        self.is_down = False
        self.stats.incr("restarts")

    # -- serving ----------------------------------------------------------
    def _accept_loop(self):
        while True:
            conn = yield self._listener.accept()
            if self.is_down:
                conn.close()
                continue
            self.stats.incr("connections")
            self._conns.append(conn)
            self.sim.spawn(self._serve_connection(conn), name="http-conn")

    def _forget(self, conn: TCPConnection) -> None:
        if conn in self._conns:
            self._conns.remove(conn)

    def _sendable(self, conn: TCPConnection) -> bool:
        """May the serve loop still answer on this connection?

        After a crash the connection was closed under us; sending on a
        FIN_SENT/CLOSED socket raises, so responses are dropped instead.
        """
        return not self.is_down and conn.state in (
            TCPConnection.ESTABLISHED, TCPConnection.CLOSE_WAIT)

    def _serve_connection(self, conn: TCPConnection):
        parser = RequestParser()
        while True:
            chunk = yield conn.recv()
            if chunk == b"":
                self._forget(conn)
                return
            try:
                requests = parser.feed(chunk)
            except HTTPParseError:
                self.stats.incr("parse_errors")
                if self._sendable(conn):
                    conn.send(self._finalize(HTTPResponse(
                        400, {"content-type": "text/plain"}, b"bad request"
                    )).encode())
                conn.close()
                self._forget(conn)
                return
            for request in requests:
                if self.sim.tracer is not None:
                    # The requester's context arrived as packet metadata
                    # and was stamped on the connection by TCP; hand it
                    # to the handler as request metadata.
                    request.trace = conn.trace
                if (self._shed_backlog is not None
                        and self.workers.available == 0
                        and self.workers.queue_length >= self._shed_backlog):
                    self.stats.incr("shed_requests")
                    response = HTTPResponse(
                        503,
                        {"content-type": "text/plain",
                         "retry-after": f"{self._shed_hint():g}"},
                        b"server overloaded",
                    )
                else:
                    worker = self.workers.request()
                    try:
                        yield worker
                        response = yield from self._handle(request)
                    except Interrupt:
                        # Crash/stall injection tore this worker down.
                        self._forget(conn)
                        return
                    finally:
                        if worker.triggered:
                            self.workers.release(worker)
                        else:
                            worker.cancel()
                if not self._sendable(conn):
                    self.stats.incr("dropped_responses")
                    self._forget(conn)
                    return
                keep_alive = (
                    request.headers.get("connection", "").lower()
                    == "keep-alive"
                )
                if keep_alive:
                    response.headers["connection"] = "keep-alive"
                conn.send(self._finalize(response).encode())
                self.stats.incr("requests")
                self.stats.incr(f"status_{response.status}")
                self.access_log.append((
                    self.sim.now, conn.remote_addr, request.method,
                    request.path, response.status, len(response.body),
                ))
                if not keep_alive:
                    conn.close()
                    self._forget(conn)
                    return

    def _handle(self, request: HTTPRequest):
        yield self.sim.timeout(REQUEST_SERVICE_TIME)
        path = request.path_only
        span = None
        if self.sim.tracer is not None and request.trace is not None:
            # Join the requester's trace; untraced requests get no
            # span so they don't seed root traces of their own.
            span = start_span(self.sim, "web.handle", "web",
                              parent=request.trace, method=request.method,
                              path=path)
        try:
            response = yield from self._dispatch(request, path, span)
        finally:
            end_span(self.sim, span)
        return response

    def _dispatch(self, request: HTTPRequest, path: str, span):
        denied = self._check_authorization(request, path)
        if denied is not None:
            return denied

        variants = self._static.get(path)
        if variants is not None:
            content_type, body = _negotiate(
                variants, request.headers.get("accept", ""))
            return HTTPResponse.ok(body, content_type)

        program = self.cgi.resolve(path)
        if program is None:
            return HTTPResponse.not_found(f"no resource at {path}")

        session, is_new = self.sessions.resolve(request)
        cgi_span = None
        if span is not None:
            cgi_span = start_span(self.sim, "web.cgi", "web", parent=span,
                                  program=program.name)
        database = self.database
        trace = ctx_of(cgi_span)
        if trace is not None and database is not None:
            # Per-request wrapper: the shared client cannot carry a
            # "current trace" without racing across concurrent requests.
            database = TracedDatabaseClient(database, trace)
        context = CGIContext(
            request=request,
            params=request.params,
            session=session,
            database=database,
            transactions=self.transactions,
            server=self,
            trace=trace,
        )
        try:
            response = yield from program.run(context)
        except (Interrupt, SimulationError):
            # Kernel control flow is never a CGI failure; let it
            # propagate to the event loop.
            raise
        except Exception as exc:  # CGI barrier
            # Any program error becomes a 500 for the client.
            self.stats.incr("program_errors")
            response = HTTPResponse.error(f"{type(exc).__name__}: {exc}")
        finally:
            end_span(self.sim, cgi_span)
        if is_new:
            self.sessions.attach(response, session)
        return response

    def _check_authorization(self, request: HTTPRequest, path: str):
        """None when allowed; a 401 response when credentials fail."""
        realm = None
        for prefix, prefix_realm in self._protected.items():
            if path.startswith(prefix):
                realm = prefix_realm
                break
        if realm is None:
            return None
        header = request.headers.get("authorization", "")
        if header.lower().startswith("basic "):
            import base64
            import binascii
            try:
                decoded = base64.b64decode(header[6:]).decode()
                username, _, password = decoded.partition(":")
                self.services["users"].verify(username, password)
                return None
            except (Interrupt, SimulationError):
                raise
            except (AuthenticationError, UnicodeDecodeError,
                    binascii.Error, ValueError):
                # Malformed base64, undecodable bytes or bad
                # credentials all mean the same thing: challenge again.
                pass
        self.stats.incr("auth_failures")
        return HTTPResponse(
            401,
            {"content-type": "text/plain",
             "www-authenticate": f'Basic realm="{realm}"'},
            b"authentication required",
        )

    def _finalize(self, response: HTTPResponse) -> HTTPResponse:
        custom = self._error_bodies.get(response.status)
        if custom is not None and response.status >= 400:
            response.body = custom
        response.headers.setdefault("server", "repro-httpd/1.0")
        return response


def _negotiate(variants: list[tuple[str, bytes]], accept: str) \
        -> tuple[str, bytes]:
    """Pick the variant best matching an Accept header.

    Minimal semantics: exact type match wins in the order listed by the
    client; ``type/*`` and ``*/*`` match anything of that family; no
    match (or no header) falls back to the first registered variant.
    """
    if accept:
        wanted = [part.split(";")[0].strip().lower()
                  for part in accept.split(",") if part.strip()]
        for want in wanted:
            for content_type, body in variants:
                have = content_type.lower()
                if want == have:
                    return content_type, body
                if want == "*/*":
                    return variants[0][0], variants[0][1]
                if want.endswith("/*") and \
                        have.startswith(want[:-1]):
                    return content_type, body
    return variants[0][0], variants[0][1]
