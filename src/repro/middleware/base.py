"""Middleware abstraction: what every mobile middleware must provide.

The paper's requirement 5 ("program/data independence: the change of
system components does not affect the existing programs") is enforced
here: applications speak to a :class:`MiddlewareSession` — ``get(url)``
and ``post(url, form)`` returning :class:`MiddlewareResponse` — and
never know whether a WAP gateway or the i-mode service is underneath.
Swapping middleware is a constructor change, which the interoperability
tests exercise for every device x middleware x bearer combination.

The server side is one component too (§5.1, Table 3):
:class:`GatewayServer` is the gateway core the WAP gateway, the i-mode
centre and the Palm clipping proxy share, and they differ only in their
wire codec, error-reply shape, role word and content transform.

So is the device side: :class:`ClientSession` is the one client
session behind ``WAPSession``, ``IModeSession`` and ``PalmSession``.
It owns the connection, the caller mutex, the deadline watchdog, the
abort and the spans, and they differ only in how a request is built
and encoded, how a reply is decoded and mapped to a
:class:`MiddlewareResponse`, and their span prefix (plus WAP's WTLS
handshake).
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Callable, Deque, Optional
from urllib.parse import urlencode, urlsplit

from ..net.dns import NameRegistry
from ..net.framing import FrameReader, decode_obj, encode_frame, encode_obj
from ..net.node import Node
from ..net.tcp import TCPConnection, tcp_stack
from ..obs import ctx_of, end_span, start_span
from ..opt import OPTIMIZATIONS
from ..sim import (Counter, Event, Interrupt, RandomStream, Resource,
                   SimulationError)
from ..web.client import HTTPClient

__all__ = ["RequestTimeout", "MiddlewareResponse", "MiddlewareSession",
           "response_from_http", "split_url", "encode_frame", "encode_obj",
           "decode_obj", "FrameReader", "RequestBatcher",
           "frame_reply", "TRANSLATION_MEMO_SIZE", "GatewayServer",
           "ClientSession"]


class RequestTimeout(Exception):
    """A middleware request exceeded its caller-supplied deadline.

    Raised (as an event failure) by sessions whose ``get``/``post`` was
    given a ``timeout``; it distinguishes "the network is slow/dead"
    from protocol-level failures so retry policies can treat it as
    transient.
    """


class MiddlewareResponse:
    """What a mobile application gets back for a URL."""

    def __init__(self, status: int, content_type: str, body: bytes,
                 meta: dict | None = None):
        self.status = status
        self.content_type = content_type
        self.body = body
        self.meta = {} if meta is None else meta

    def __eq__(self, other):
        if other.__class__ is MiddlewareResponse:
            return ((self.status, self.content_type, self.body, self.meta)
                    == (other.status, other.content_type, other.body,
                        other.meta))
        return NotImplemented

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class MiddlewareSession:
    """What applications call, whatever middleware is underneath.

    Implemented by :class:`ClientSession` (and through it by
    ``WAPSession``, ``IModeSession`` and ``PalmSession``) and by
    ``DirectHTTPSession`` for wired clients.
    """

    middleware_name = "abstract"

    def get(self, url: str, trace=None,
            timeout: Optional[float] = None) -> Event:
        """Event yielding a MiddlewareResponse (or failing).

        ``trace`` is an optional observability TraceContext; sessions
        propagate it to the middleware server on whatever their protocol
        already carries (frame key or header).  It never changes what
        the request does.

        ``timeout`` is a per-request deadline in sim-seconds: when set
        and no response arrived in time, the event fails with
        :class:`RequestTimeout` and the underlying connection is
        aborted (a fresh one is established on the next request).
        """
        raise NotImplementedError

    def post(self, url: str, form: dict, trace=None,
             timeout: Optional[float] = None) -> Event:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


def response_from_http(response) -> MiddlewareResponse:
    """The :class:`MiddlewareResponse` for an HTTP reply.

    ``meta`` carries the delivered body size and, when the reply has
    one, its Retry-After backpressure hint in seconds.
    """
    meta = {"delivered_bytes": len(response.body)}
    retry_after = response.headers.get("retry-after")
    if retry_after is not None:
        meta["retry_after"] = float(retry_after)
    return MiddlewareResponse(status=response.status,
                              content_type=response.content_type,
                              body=response.body, meta=meta)


def split_url(url: str) -> tuple[str, str]:
    """(host, path-with-query) from an absolute http URL."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", ""):
        raise ValueError(f"unsupported scheme in {url!r}")
    host = parts.netloc or ""
    if not host:
        raise ValueError(f"URL {url!r} has no host")
    path = parts.path or "/"
    if parts.query:
        path += "?" + parts.query
    return host, path


# ------------------------------------------------- batching + admission
def frame_reply(status: int, message: str,
                retry_after: Optional[float] = None) -> dict:
    """A gateway-originated frame reply (WAP/Palm wire shape)."""
    meta = {} if retry_after is None else {"retry_after": retry_after}
    return {"status": status, "content_type": "text/plain",
            "body": message.encode(), "meta": meta}


# Batching and admission control (DESIGN.md §13), sized to the GPRS
# cell's 12.5 KB/s of shared airtime.  At most one flush per
# BATCH_WINDOW virtual seconds and at most BATCH_MAX requests per flush:
# ~18.75 req/s nominal, deliberately above what the radio sustains
# (~620 B of airtime per served request), so the binding limit is the
# RAN backpressure gate, which tracks the radio's true capacity.
# Shorter windows push the cell into queueing (p50 3 s -> 30 s+).
BATCH_WINDOW = 0.16
BATCH_MAX = 3
# Virtual CPU cost per batched request, pipelined inside a flush: each
# item starts one cost after the previous, so same-flush handlers never
# resume in one kernel batch, where their order would be observable.
PER_ITEM_COST = 0.001
# Once this many requests are queued, arrivals are shed at once: a shed
# cycle costs ~400 B of airtime against ~620 B plus queueing for a
# served request, and a parked client stops contending until its
# Retry-After reservation matures.
WATERMARK = 12
# Shed replies reserve the next free *future* service slot, never
# sooner than RETRY_FLOOR and DRAIN_GAP apart, so shed clients trickle
# back at the rate the gateway drains instead of re-stampeding.
# RESERVE_FACTOR over-spaces the slots 5x, leaving room for fresh
# arrivals; SHED_JITTER spreads each hint by up to +-20% (seeded).
RETRY_FLOOR = 1.0
SHED_JITTER = 0.2
RESERVE_FACTOR = 5.0
DRAIN_GAP = RESERVE_FACTOR * BATCH_WINDOW / BATCH_MAX
# RAN backpressure: arrivals are also shed while this many transmitters
# wait for the cell's shared airtime (replies sent into a saturated
# cell only deepen the collapse).
PRESSURE_THRESHOLD = 12


class RequestBatcher:
    """Accumulate-and-flush front end for a gateway request handler.

    Serve loops call :meth:`submit` instead of invoking the handler
    inline and yield the returned event for the reply.  One flush
    process drains the queue in paced batches (``BATCH_MAX`` per
    ``BATCH_WINDOW``) and spawns the handler per admitted request, so
    middleware occupancy is bounded by the batch size rather than
    scaling with concurrent subscribers.  ``handler(request,
    parent=...)`` is the gateway's usual per-request generator;
    ``reply_factory(status, message, retry_after)`` builds
    protocol-shaped shed/error replies.  ``stream`` seeds the shed
    jitter and ``pressure()`` is the upstream congestion probe (the
    cell's shared-airtime backlog); without them there is no jitter and
    no pressure gate.

    Everything runs on the sim clock with seeded jitter only, so
    batched runs stay byte-identical under the determinism guards.
    """

    def __init__(self, sim, handler: Callable, reply_factory: Callable,
                 stream=None, stats: Optional[Counter] = None,
                 name: str = "gw-batcher",
                 pressure: Optional[Callable[[], int]] = None):
        self.sim = sim
        self.handler = handler
        self.reply_factory = reply_factory
        self.stream = stream
        self.pressure = pressure
        self.stats = stats if stats is not None else Counter()
        self._queue: Deque[tuple] = deque()
        self._wakeup: Optional[Event] = None
        self._last_flush: Optional[float] = None
        # Virtual-FIFO reservation pointer for shed Retry-After hints:
        # each shed claims the next future service slot, so hints grow
        # with (virtual) queue depth and returns arrive spread out.
        self._next_slot = 0.0
        sim.spawn(self._flush_loop(), name=name)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def submit(self, request, parent=None) -> Event:
        """Enqueue (or shed) a request; event yields the reply."""
        done = self.sim.event()
        if len(self._queue) >= WATERMARK:
            self.stats.incr("admission_sheds")
            done.succeed(self.reply_factory(
                503, "gateway overloaded", self._reserve_slot()))
            return done
        if (self.pressure is not None
                and self.pressure() >= PRESSURE_THRESHOLD):
            # RAN backpressure: the radio is already backlogged, so a
            # reply would queue behind the very congestion the client
            # is suffering.  Park the client on a reservation instead.
            self.stats.incr("pressure_sheds")
            done.succeed(self.reply_factory(
                503, "air interface congested", self._reserve_slot()))
            return done
        self._queue.append((request, parent, done))
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)
        return done

    def reject_pending(self, message: str = "gateway unavailable") -> None:
        """Fail-fast every queued request (crash hook): waiting serve
        loops wake with a 503 instead of blocking forever."""
        while self._queue:
            _request, _parent, done = self._queue.popleft()
            if not done.triggered:
                done.succeed(self.reply_factory(503, message, RETRY_FLOOR))

    def _reserve_slot(self) -> float:
        now = self.sim.now
        base = max(self._next_slot, now + RETRY_FLOOR)
        self._next_slot = base + DRAIN_GAP
        hint = base - now
        if self.stream is not None:
            hint *= 1.0 + SHED_JITTER * (2.0 * self.stream.random() - 1.0)
        return round(hint, 6)

    def _flush_loop(self):
        sim = self.sim
        while True:
            if not self._queue:
                self._wakeup = sim.event()
                yield self._wakeup
                self._wakeup = None
            if self._last_flush is not None:
                wait = self._last_flush + BATCH_WINDOW - sim.now
                if wait > 0:
                    yield sim.timeout(wait)
            batch = [self._queue.popleft()
                     for _ in range(min(BATCH_MAX, len(self._queue)))]
            if not batch:
                # Drained while pacing (crash hook): nothing to flush.
                continue
            self._last_flush = sim.now
            self.stats.incr("batches")
            self.stats.incr("batched_requests", len(batch))
            for request, parent, done in batch:
                # Pipeline the per-item cost: consecutive items start
                # one cost apart, never at one instant.  Handlers that
                # did share one would run in tie-break order, another
                # valid sample path (DESIGN §11); the gap is kept
                # because the pinned bench bytes depend on it.
                yield sim.timeout(PER_ITEM_COST)
                sim.spawn(self._run_item(request, parent, done),
                          name="gw-batch-item")

    def _run_item(self, request, parent, done):
        try:
            reply = yield from self.handler(request, parent=parent)
        except (Interrupt, SimulationError):
            # Kernel control flow: settle the waiter, then propagate.
            if not done.triggered:
                done.succeed(self.reply_factory(
                    503, "gateway interrupted", RETRY_FLOOR))
            raise
        except Exception as exc:  # batch barrier
            # The serve loop must never hang on a reply that will not
            # come; handler bugs become a 500, matching the CGI barrier.
            self.stats.incr("batch_item_errors")
            reply = self.reply_factory(
                500, f"{type(exc).__name__}: {exc}", None)
        if not done.triggered:
            done.succeed(reply)


# ------------------------------------------------------------ gateway core
# Entries the content memo keeps, least recently used first out.  Hits
# come from a gateway's few hot bodies (its catalog deck); every other
# body is seen once.  On the four bench workloads at seed 7 (and
# chaos-storm at 1007 and 2007) 64 loses no hit the unbounded memo had;
# 32 lost one on chaos-storm at seeds 7 and 2007.
TRANSLATION_MEMO_SIZE = 64


class GatewayServer:
    """The gateway core: the server half every mobile middleware shares.

    It owns the listener, the accept and serve loops, crash/restart,
    the optional :class:`RequestBatcher`, the breaker-guarded origin
    fetch and one content-hash memo.  A middleware supplies four things:

    * its wire codec — ``_decoder`` (a class whose instances ``feed``
      bytes and return requests), ``_encode`` (reply -> bytes) and
      ``_fields`` (request -> method, url, body).  The defaults are the
      length-prefixed frames WAP and Palm speak;
    * its error-reply shape, ``_reply(status, message, retry_after)``,
      used for shed replies and (through ``_error``) origin errors;
    * a ``role`` word ("gateway", "centre", "proxy") for the 503 body,
      the crash message and process names, and a ``span_name``;
    * ``_transform(request, upstream, span)``, what it does to content.
    """

    role: str
    span_name: str
    default_port: int
    # Extra headers on every origin request (None = none).
    origin_headers: Optional[dict] = None
    _decoder = FrameReader
    _encode = staticmethod(encode_frame)
    _reply = staticmethod(frame_reply)

    def __init__(self, node: Node, registry: NameRegistry,
                 port: Optional[int] = None,
                 breaker=None, origin_timeout: float = 30.0,
                 batching: bool = False,
                 batch_stream: Optional[RandomStream] = None,
                 air_pressure=None, handicap: float = 0.0):
        if handicap < 0:
            raise ValueError(f"handicap must be >= 0, got {handicap}")
        self.node = node
        self.sim = node.sim
        self.registry = registry
        self.port = self.default_port if port is None else port
        self.tcp = tcp_stack(node)
        self.http = HTTPClient(node)
        # Optional CircuitBreaker guarding gateway -> origin calls.
        self.breaker = breaker
        self.origin_timeout = origin_timeout
        self.stats = Counter()
        # Transparent content memo keyed by a digest of the origin body
        # (see _memo), at most TRANSLATION_MEMO_SIZE entries.  Flushed
        # on crash and restart — a rebooted gateway has a cold cache.
        self._translations: dict[tuple, tuple] = {}
        self.translation_cache_hits = 0
        # Per-request service handicap in sim-seconds, charged before
        # handling.  0 (the default) adds no event; canary "v2" variants
        # use it as the public knob for a deliberately degraded build.
        self.handicap = handicap
        # Optional accumulate-and-flush batching + admission control:
        # serve loops route requests through the batcher when present
        # (None keeps the inline path).
        self.batcher = None
        if batching:
            self.batcher = RequestBatcher(
                self.sim, handler=self._handle,
                reply_factory=self._reply, stream=batch_stream,
                stats=self.stats, name=f"{self.role}-batch@{node.name}",
                pressure=air_pressure)
        self.is_down = False
        self._conns: list[TCPConnection] = []
        self._listen(self.port, self._serve, "sessions")

    # -- fault hooks -------------------------------------------------------
    def crash(self) -> None:
        """Hard-stop: queued requests are rejected, every established
        session is severed and new sessions are refused (closed
        immediately) until :meth:`restart`."""
        if self.is_down:
            return
        self.is_down = True
        self.stats.incr("crashes")
        self._translations.clear()
        if self.batcher is not None:
            self.batcher.reject_pending(f"{self.role} crashed")
        for conn in self._conns:
            conn.close()
        self._conns.clear()

    def restart(self) -> None:
        if not self.is_down:
            return
        self.is_down = False
        self.stats.incr("restarts")
        self._translations.clear()

    # -- serving -----------------------------------------------------------
    def _listen(self, port: int, serve, stat: str) -> None:
        listener = self.tcp.listen(port)
        self.sim.spawn(self._accept_loop(listener, serve, stat),
                       name=f"{self.role}@{self.node.name}:{port}")

    def _accept_loop(self, listener, serve, stat: str):
        while True:
            conn = yield listener.accept()
            if self.is_down:
                conn.close()
                continue
            self._conns.append(conn)
            self.stats.incr(stat)
            self.sim.spawn(serve(conn), name=f"{self.role}-session")

    def _serve(self, conn: TCPConnection):
        decoder = self._decoder()
        while True:
            chunk = yield conn.recv()
            if chunk == b"":
                self._forget(conn)
                return
            for request in decoder.feed(chunk):
                reply = yield from self._dispatch(request, conn)
                if reply is None:
                    return
                conn.send(self._encode(reply))

    def _dispatch(self, request, conn: TCPConnection):
        """The reply to ``request``, or None when the gateway crashed or
        the peer left while it was handled (the reply is dropped)."""
        # conn.trace arrives as packet metadata via TCP.
        if self.batcher is not None:
            reply = yield self.batcher.submit(request, parent=conn.trace)
        else:
            reply = yield from self._handle(request, parent=conn.trace)
        if self.is_down or conn.state not in (TCPConnection.ESTABLISHED,
                                              TCPConnection.CLOSE_WAIT):
            self._forget(conn)
            return None
        return reply

    def _forget(self, conn: TCPConnection) -> None:
        if conn in self._conns:
            self._conns.remove(conn)

    def _handle(self, request, parent=None):
        self.stats.incr("requests")
        if self.handicap > 0:
            yield self.sim.timeout(self.handicap)
        span = None
        if self.sim.tracer is not None and parent is not None:
            span = start_span(self.sim, self.span_name, "middleware",
                              parent=parent, url=self._fields(request)[1])
        try:
            reply = yield from self._respond(request, span)
        finally:
            end_span(self.sim, span)
        return reply

    def _respond(self, request, span):
        """Fetch ``request`` from its origin and transform the answer."""
        method, url, body = self._fields(request)
        try:
            host, path = split_url(url)
        except ValueError as exc:
            return self._error(400, str(exc))
        origin = self.registry.lookup(host)
        if origin is None:
            self.stats.incr("dns_failures")
            return self._error(502, f"cannot resolve {host}")
        if self.breaker is not None and not self.breaker.allow():
            self.stats.incr("breaker_rejections")
            return self._error(503, f"{self.role} circuit open",
                               self.breaker.retry_after)
        if method == "POST":
            upstream = yield self.http.post(
                origin, path, body, headers=self.origin_headers,
                timeout=self.origin_timeout, trace=ctx_of(span))
        else:
            upstream = yield self.http.get(
                origin, path, headers=self.origin_headers,
                timeout=self.origin_timeout, trace=ctx_of(span))
        if upstream is None:
            self.stats.incr("origin_timeouts")
            if self.breaker is not None:
                self.breaker.record_failure()
            return self._error(504, "origin timeout")
        if self.breaker is not None:
            # 5xx (including load-shed 503s) count against the origin.
            if upstream.status >= 500:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
        return (yield from self._transform(request, upstream, span))

    def _memo(self, compute, body: bytes, *args):
        """``compute(body, *args)``, memoized on a digest of ``body``.

        The only reader of ``OPTIMIZATIONS.translation_cache``.  It is
        transparent: ``compute`` is pure content work, and callers
        charge its virtual CPU time and tick their counters on hits
        too, so a hit saves host time and never changes the timeline.
        It keeps the ``TRANSLATION_MEMO_SIZE`` most recently used
        entries: a hit moves its entry to the end of the dict, and a
        miss past the bound drops the first.
        """
        if not OPTIMIZATIONS.translation_cache:
            return compute(body, *args)
        memo = self._translations
        key = (compute, hashlib.sha1(body).digest(), args)
        hit = memo.pop(key, None)
        if hit is not None:
            self.translation_cache_hits += 1
            memo[key] = hit
            return hit
        value = memo[key] = compute(body, *args)
        if len(memo) > TRANSLATION_MEMO_SIZE:
            del memo[next(iter(memo))]
        return value

    # -- what a middleware supplies ----------------------------------------
    @staticmethod
    def _fields(request: dict) -> tuple:
        return (request.get("method", "GET").upper(), request.get("url", ""),
                request.get("body", b""))

    def _error(self, status: int, message: str,
               retry_after: Optional[float] = None):
        return self._reply(status, message, retry_after)

    def _transform(self, request, upstream, span):
        raise NotImplementedError


# ---------------------------------------------------------- client session
class _Watchdog:
    """A request deadline as callbacks, not a process (DESIGN §11): a
    settled ``result`` cancels ``timer``, whose expiry interrupts
    ``proc`` by one scheduled call in the slot the old race took."""

    __slots__ = ("result", "proc", "timer", "url")

    def __init__(self, result: Event, proc, timer, url: str):
        self.result, self.proc, self.timer, self.url = result, proc, timer, url
        timer.callbacks.append(self._expired)
        result.callbacks.append(self._settled)

    def _settled(self, _result: Event) -> None:
        self.timer.cancel()

    def _expired(self, timer) -> None:
        timer.sim._call(self._interrupt)

    def _interrupt(self, _arg) -> None:
        if not self.result.triggered:
            self.proc.interrupt(RequestTimeout(
                f"no middleware response within {self.timer.delay:g}s "
                f"({self.url})"))


class ClientSession(MiddlewareSession):
    """The device-side session every mobile middleware shares.

    It holds one connection to the middleware server, opened on first
    use and again after a drop, and serialises callers on it so each
    reply answers its own request.  A request given a ``timeout`` that
    passes without a reply fails with :class:`RequestTimeout` and
    aborts the connection, so a late half-reply never answers the next
    request.  A middleware supplies:

    * ``_request(method, url, body)``, the request it sends (``body``
      is None for a GET);
    * its wire codec — ``_encode`` (request -> bytes) and ``_decoder``
      (a class whose instances ``feed`` bytes and return replies).  The
      defaults are the length-prefixed frames WAP and Palm speak;
    * ``_response(reply)``, the :class:`MiddlewareResponse` for a reply;
    * a ``span_prefix`` for its ``<prefix>.request`` span and the
      ``<prefix>.connect`` child opened when a request has to connect,
      the ``protocol`` word of its "session closed" error and a
      ``default_port``.

    ``_handshake`` runs on every new connection (WAP's WTLS) and may
    replace ``_link``, what requests are sent over, with a channel.
    """

    span_prefix: str
    protocol: str
    default_port: int
    _decoder = FrameReader
    _encode = staticmethod(encode_frame)
    # Protocol errors that fail the request instead of the process.
    _failures: tuple = ()

    def __init__(self, node: Node, address, port: Optional[int] = None):
        self.node = node
        self.sim = node.sim
        self.address = address
        self.port = self.default_port if port is None else port
        self.tcp = tcp_stack(node)
        self.stats = Counter()
        self._conn: Optional[TCPConnection] = None
        self._link = None
        self._reader = self._decoder()
        self._replies: list = []
        self._mutex = Resource(self.sim, capacity=1)

    def get(self, url: str, trace=None,
            timeout: Optional[float] = None) -> Event:
        return self._exchange(self._request("GET", url, None), url,
                              trace, timeout)

    def post(self, url: str, form: dict, trace=None,
             timeout: Optional[float] = None) -> Event:
        return self._exchange(
            self._request("POST", url, urlencode(form).encode()), url,
            trace, timeout)

    def _exchange(self, request, url: str, trace,
                  timeout: Optional[float]) -> Event:
        result = self.sim.event()
        span = None
        if trace is not None:
            span = start_span(self.sim, f"{self.span_prefix}.request",
                              "middleware", parent=trace, url=url)
        proc = self.sim.spawn(self._run(request, result, span),
                              name=f"{self.span_prefix}-request")
        if timeout is not None:
            _Watchdog(result, proc, self.sim.timeout(timeout), url)
        return result

    def _run(self, request, result: Event, span):
        grant = self._mutex.request()
        try:
            yield grant
            connect_span = None
            if span is not None and not self._established():
                connect_span = start_span(
                    self.sim, f"{self.span_prefix}.connect", "middleware",
                    parent=span)
            yield from self._ensure_connected()
            end_span(self.sim, connect_span)
            if span is not None:
                self._conn.trace = span.context()
            self.stats.incr("requests")
            self._link.send(self._encode(request))
            while not self._replies:
                chunk = yield self._link.recv()
                if chunk == b"":
                    result.fail(
                        ConnectionError(f"{self.protocol} session closed"))
                    return
                self._replies.extend(self._reader.feed(chunk))
            result.succeed(self._response(self._replies.pop(0)))
        except self._failures as exc:
            result.fail(exc)
        except Interrupt as exc:
            # The deadline passed: abort the session (a stale half-reply
            # must not answer the next request).
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

    def _established(self) -> bool:
        return self._conn is not None and \
            self._conn.state == TCPConnection.ESTABLISHED

    def _ensure_connected(self):
        """Generator: opens the session unless it is established."""
        if self._established():
            return
        self._conn = self._link = self.tcp.connect(self.address, self.port)
        self.stats.incr("session_establishments")
        yield self._conn.established_event
        yield from self._handshake()

    def _handshake(self):
        """Generator run on each new connection; none by default."""
        yield from ()

    def _abort(self) -> None:
        self.close()
        self._reader = self._decoder()
        self._replies.clear()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._link = None

    # -- what a middleware supplies ----------------------------------------
    def _request(self, method: str, url: str, body: Optional[bytes]):
        request = {"method": method, "url": url}
        if body is not None:
            request["body"] = body
        return request

    @staticmethod
    def _response(reply: dict) -> MiddlewareResponse:
        return MiddlewareResponse(status=reply.get("status", 0),
                                  content_type=reply.get("content_type", ""),
                                  body=reply.get("body", b""),
                                  meta=reply.get("meta", {}))
