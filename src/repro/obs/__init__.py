"""Observability for the m-commerce simulator.

Two pieces, both zero-cost until installed:

* **Spans** (:mod:`repro.obs.span`): hierarchical timed operations over
  the simulation clock, stitched across components by an explicit
  :class:`TraceContext` carried on connections and packets.
* **Kernel profiling** (:mod:`repro.obs.profile`): event-loop counts,
  the time-weighted mean and maximum queue depth, behind a nil-cost
  default.

:mod:`repro.obs.report` turns a trace into a per-layer latency
breakdown whose sum equals the end-to-end latency exactly.
"""

from __future__ import annotations

from .context import TraceContext
from .profile import KernelProfiler, install_profiler
from .report import (
    LAYER_ORDER,
    format_breakdown,
    layer_breakdown,
    render_breakdown_table,
    render_trace_json,
    trace_to_dict,
)
from .span import Span, Tracer, ctx_of, end_span, install_tracer, start_span

__all__ = [
    "TraceContext",
    "Span",
    "Tracer",
    "install_tracer",
    "start_span",
    "end_span",
    "ctx_of",
    "KernelProfiler",
    "install_profiler",
    "LAYER_ORDER",
    "layer_breakdown",
    "format_breakdown",
    "render_breakdown_table",
    "trace_to_dict",
    "render_trace_json",
]
