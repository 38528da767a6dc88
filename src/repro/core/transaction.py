"""The end-to-end mobile commerce transaction engine.

Requirement 1 of §1.1: "allow end users to perform mobile commerce
transactions easily, in a timely manner, and ubiquitously."  The engine
runs an application *flow* (a generator using a station's middleware
session and browser), measures it wall-to-wall, charges device-side
rendering to the station hardware, and produces a
:class:`TransactionRecord` the benchmarks aggregate.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from ..middleware import MiddlewareResponse, RequestTimeout
from ..obs import ctx_of, end_span, start_span
from ..sim import Event, Interrupt, SimulationError, Simulator

__all__ = ["TransactionRecord", "TransactionContext", "TransactionEngine"]

_txn_ids = itertools.count(1)

# Transport failures a retry policy may absorb: the request never got a
# definitive answer, so trying again is safe for idempotent flows.
TRANSIENT_ERRORS = (RequestTimeout, ConnectionError)


class TransactionRecord:
    """The measured outcome of one end-to-end transaction."""

    def __init__(self, txn_id: int, flow_name: str, client_name: str,
                 started_at: float, finished_at: float = 0.0, ok: bool = False,
                 error: str = "", result: Any = None, requests: int = 0,
                 bytes_received: int = 0, render_seconds: float = 0.0,
                 retries: int = 0, shed_503s: int = 0,
                 steps: list[str] | None = None,
                 trace_id: Optional[int] = None):
        self.txn_id = txn_id
        self.flow_name = flow_name
        self.client_name = client_name
        self.started_at = started_at
        self.finished_at = finished_at
        self.ok = ok
        self.error = error
        self.result = result
        self.requests = requests
        self.bytes_received = bytes_received
        self.render_seconds = render_seconds
        self.retries = retries
        # 503 responses observed across all attempts: admission control
        # (gateway watermark or web-server shedding) rejected the request.
        # Lets benchmarks split "shed by design" from other failures.
        self.shed_503s = shed_503s
        self.steps = [] if steps is None else steps
        # Id of this transaction's root span when a tracer was installed.
        self.trace_id = trace_id

    @property
    def latency(self) -> float:
        return self.finished_at - self.started_at


class TransactionContext:
    """What a flow sees: fetch/submit/render primitives plus bookkeeping."""

    def __init__(self, engine: "TransactionEngine", handle,
                 record: TransactionRecord, trace=None):
        self.engine = engine
        self.handle = handle
        self.record = record
        self.system = engine.system
        # TraceContext of the transaction's root span (None untraced);
        # every middleware call and render parents to it.
        self.trace = trace

    # -- network I/O ------------------------------------------------------
    def get(self, path: str, timeout: Optional[float] = None):
        """Generator: GET a host path through the middleware session.

        ``timeout`` caps each attempt in sim-seconds (falling back to
        the engine's ``request_timeout``, then the retry policy's
        ``attempt_timeout``).  When the engine carries a retry policy,
        transient failures — :class:`RequestTimeout`,
        ``ConnectionError`` and retryable 5xx statuses — are retried
        with exponential backoff on the sim clock, honouring any
        ``Retry-After`` hint the server shed with.
        """
        return (yield from self._call("get", path, None, timeout))

    def post(self, path: str, form: dict, timeout: Optional[float] = None):
        return (yield from self._call("post", path, form, timeout))

    def _call(self, method: str, path: str, form, timeout: Optional[float]):
        policy = self.engine.retry
        deadline = timeout
        if deadline is None:
            deadline = self.engine.request_timeout
        if deadline is None and policy is not None:
            deadline = policy.attempt_timeout
        url = self.system.url(path)
        session = self.handle.session
        attempts = policy.max_attempts if policy is not None else 1
        attempt = 1
        while True:
            try:
                if method == "get":
                    response = yield session.get(url, trace=self.trace,
                                                 timeout=deadline)
                else:
                    response = yield session.post(url, form, trace=self.trace,
                                                  timeout=deadline)
            except TRANSIENT_ERRORS as exc:
                if attempt >= attempts:
                    raise
                delay = policy.backoff(attempt)
                self.record.retries += 1
                self.record.steps.append(
                    f"{path} !! {type(exc).__name__}; "
                    f"retry {attempt} in {delay:.3f}s")
                yield self.engine.sim.timeout(delay)
                attempt += 1
                continue
            if (policy is not None and attempt < attempts
                    and policy.retryable_status(response.status)):
                if response.status == 503:
                    self.record.shed_503s += 1
                delay = policy.backoff(attempt)
                hint = getattr(response, "meta", {}).get("retry_after")
                if hint is not None:
                    delay = max(delay, float(hint))
                self.record.retries += 1
                self.record.steps.append(
                    f"{path} -> {response.status}; "
                    f"retry {attempt} in {delay:.3f}s")
                yield self.engine.sim.timeout(delay)
                attempt += 1
                continue
            self._account(path, response)
            return response

    def _account(self, path: str, response: MiddlewareResponse) -> None:
        self.record.requests += 1
        if response.status == 503:
            self.record.shed_503s += 1
        self.record.bytes_received += len(response.body)
        self.record.steps.append(
            f"{path} -> {response.status} ({len(response.body)}B)"
        )

    # -- device-side work ----------------------------------------------------
    def render(self, response: MiddlewareResponse):
        """Generator: render a response on the device (if it has a browser)."""
        browser = getattr(self.handle, "browser", None)
        if browser is None:
            return None
        page = yield browser.render(response.body, response.content_type,
                                    trace=self.trace)
        self.record.render_seconds += page.render_seconds
        self.record.steps.append(
            f"rendered {page.source_bytes}B in {page.render_seconds:.3f}s"
        )
        return page

    def note(self, message: str) -> None:
        self.record.steps.append(message)


FlowFunction = Callable[[TransactionContext], Any]


class TransactionEngine:
    """Runs flows against a built system and keeps the ledger.

    ``retry`` is an optional policy object (duck-typed as
    :class:`repro.resilience.RetryPolicy`: ``max_attempts``,
    ``backoff(attempt)``, ``retryable_status(status)``,
    ``attempt_timeout``).  ``request_timeout`` is a per-attempt
    deadline applied to every context call that doesn't name its own.
    Both default to off, preserving the seed behaviour exactly.
    """

    def __init__(self, system, retry=None,
                 request_timeout: Optional[float] = None):
        self.system = system
        self.sim: Simulator = system.sim
        self.retry = retry if retry is not None \
            else getattr(system, "retry_policy", None)
        self.request_timeout = request_timeout if request_timeout is not None \
            else getattr(system, "request_timeout", None)
        self.records: list[TransactionRecord] = []

    def run_flow(self, handle, flow: FlowFunction,
                 name: Optional[str] = None) -> Event:
        """Execute ``flow(ctx)``; event yields the TransactionRecord.

        The record is marked ``ok`` when the flow returns without
        raising; its return value lands in ``record.result``.
        """
        client_name = getattr(
            getattr(handle, "station", None), "name", None
        ) or getattr(getattr(handle, "node", None), "name", "client")
        record = TransactionRecord(
            txn_id=next(_txn_ids),
            flow_name=name or getattr(flow, "__name__", "flow"),
            client_name=client_name,
            started_at=self.sim.now,
        )
        self.records.append(record)
        root = start_span(self.sim, f"txn.{record.flow_name}", "app",
                          client=client_name)
        if root is not None:
            record.trace_id = root.trace_id
        context = TransactionContext(self, handle, record,
                                     trace=ctx_of(root))
        done = self.sim.event()

        def runner(env):
            try:
                result = yield from flow(context)
                record.ok = True
                record.result = result
            except (Interrupt, SimulationError):
                # Kernel control flow must not be ledgered as a mere
                # failed transaction.
                raise
            except Exception as exc:  # ledger barrier
                record.ok = False
                record.error = f"{type(exc).__name__}: {exc}"
            record.finished_at = env.now
            end_span(self.sim, root, ok=record.ok)
            done.succeed(record)

        self.sim.spawn(runner(self.sim), name=f"txn-{record.txn_id}")
        return done

    # -- aggregate views ----------------------------------------------------
    @property
    def completed(self) -> list[TransactionRecord]:
        return [r for r in self.records if r.finished_at > 0]

    @property
    def successful(self) -> list[TransactionRecord]:
        return [r for r in self.completed if r.ok]

    def success_rate(self) -> float:
        done = self.completed
        if not done:
            return 0.0
        return len(self.successful) / len(done)

    def latencies(self) -> list[float]:
        return [r.latency for r in self.successful]
