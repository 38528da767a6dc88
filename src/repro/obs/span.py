"""Hierarchical span tracing over the simulation clock.

A :class:`Span` is one timed operation in one component (a render, a
gateway translation, a link transmission, a database query); a
:class:`Tracer` collects them.  All timestamps come from
``Simulator.now`` — the tracer never touches the wall clock — and spans
never consume virtual time, so installing a tracer cannot change what
the simulation computes, only what it reports.

The tracer is installed on ``Simulator.tracer`` (``None`` by default).
Instrumentation sites go through :func:`start_span` / :func:`end_span`,
which are no-ops while no tracer is installed — the disabled path is a
single attribute check, keeping the default run byte-identical.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Union

from .context import TraceContext

__all__ = [
    "Span",
    "Tracer",
    "install_tracer",
    "start_span",
    "end_span",
    "ctx_of",
]

ParentLike = Union["Span", TraceContext, None]


class Span:
    """One timed, named, layered operation inside a trace.

    Slotted: a traced 500-user benchmark allocates hundreds of
    thousands of spans, so they carry no per-instance ``__dict__``.
    """

    __slots__ = ("name", "layer", "trace_id", "span_id", "parent_id", "start",
                 "end", "attrs")

    def __init__(self, name: str, layer: str, trace_id: int, span_id: int,
                 parent_id: Optional[int], start: float,
                 end: Optional[float] = None, attrs: dict | None = None):
        self.name = name
        self.layer = layer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.attrs = {} if attrs is None else attrs

    @property
    def finished(self) -> bool:
        return self.end is not None

    def context(self) -> TraceContext:
        """The context a child (possibly in another component) parents to."""
        return TraceContext(self.trace_id, self.span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        when = (f"{self.start:.6f}..{self.end:.6f}"
                if self.end is not None else f"{self.start:.6f}..open")
        return f"<Span {self.name} [{self.layer}] t{self.trace_id} {when}>"


class Tracer:
    """Collects spans for one simulator; ids are tracer-local and
    deterministic (no module-level counters — two identical runs produce
    identical traces)."""

    def __init__(self, sim):
        self.sim = sim
        self.spans: list[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    def install(self) -> "Tracer":
        """Attach this tracer to its simulator (``sim.tracer``)."""
        self.sim.tracer = self
        return self

    # -- recording -------------------------------------------------------
    def start(self, name: str, layer: str, parent: ParentLike = None,
              **attrs: Any) -> Span:
        """Open a span at ``sim.now``; parent may be a Span, a
        TraceContext (propagated from another component) or None (a new
        root trace)."""
        if isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif isinstance(parent, TraceContext):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = next(self._trace_ids), None
        span = Span(
            name=name,
            layer=layer,
            trace_id=trace_id,
            span_id=next(self._span_ids),
            parent_id=parent_id,
            start=self.sim.now,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close a span at ``sim.now`` (idempotent)."""
        if span.end is None:
            span.end = self.sim.now
        if attrs:
            span.attrs.update(attrs)
        return span

    # -- queries ---------------------------------------------------------
    def for_trace(self, trace_id: int) -> list[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def __len__(self) -> int:
        return len(self.spans)


def install_tracer(sim) -> Tracer:
    """Create a :class:`Tracer` for ``sim`` and install it."""
    return Tracer(sim).install()


# ------------------------------------------------------- nil-cost helpers
def start_span(sim, name: str, layer: str, parent: ParentLike = None,
               **attrs: Any) -> Optional[Span]:
    """Open a span if ``sim`` has a tracer installed; else None."""
    tracer = sim.tracer
    if tracer is None:
        return None
    return tracer.start(name, layer, parent=parent, **attrs)


def end_span(sim, span: Optional[Span], **attrs: Any) -> None:
    """Close ``span`` if it exists (no-op for the untraced path)."""
    if span is None:
        return
    tracer = sim.tracer
    if tracer is not None:
        tracer.end(span, **attrs)


def ctx_of(span: Optional[Span]) -> Optional[TraceContext]:
    """The span's propagatable context, or None when untraced."""
    return span.context() if span is not None else None
