"""Per-layer latency breakdowns and trace export.

The breakdown answers the question the paper's six-component pipeline
begs: *where did this transaction's time go?*  Attribution is by
timeline sweep: within the root span's interval, every instant is
charged to the layer of the **deepest** span covering it (ties broken
by latest start, then highest span id — deterministic).  Because every
instant is charged to exactly one layer, the per-layer seconds sum to
the root span's duration *exactly*, which is also the transaction's
end-to-end latency — the consistency property the trace CLI asserts.
"""

from __future__ import annotations

import heapq
import json
from typing import Iterable, Optional

from .span import Span, Tracer

__all__ = [
    "LAYER_ORDER",
    "layer_breakdown",
    "format_breakdown",
    "render_breakdown_table",
    "trace_to_dict",
    "render_trace_json",
]

# Presentation order: the paper's pipeline, device -> host, then app glue.
LAYER_ORDER = ["device", "middleware", "wireless", "wired", "web", "db",
               "app"]

# Unambiguous short labels for one-line cells ("wireless"/"wired" both
# truncate to "wir", so a plain prefix will not do).
_LAYER_ABBREV = {"device": "dev", "middleware": "mid", "wireless": "wls",
                 "wired": "wrd", "web": "web", "db": "db", "app": "app"}


def _span_depths(spans: list[Span]) -> dict[int, int]:
    """Depth of every span (root = 0) via parent chains.

    Spans whose parent is not in the list (a caller passed part of a trace)
    are treated as depth 0.
    """
    by_id = {s.span_id: s for s in spans}
    depths: dict[int, int] = {}

    def depth(span: Span) -> int:
        cached = depths.get(span.span_id)
        if cached is not None:
            return cached
        seen: list[int] = []
        node, hops = span, 0
        while node.parent_id is not None and node.parent_id in by_id:
            cached = depths.get(node.span_id)
            if cached is not None:
                hops += cached
                break
            seen.append(node.span_id)
            node = by_id[node.parent_id]
            hops += 1
        base = hops
        for offset, span_id in enumerate(seen):
            depths[span_id] = base - offset
        depths.setdefault(span.span_id, base)
        return depths[span.span_id]

    for span in spans:
        depth(span)
    return depths


def layer_breakdown(tracer_or_spans, trace_id: Optional[int] = None,
                    root: Optional[Span] = None) -> dict[str, float]:
    """Seconds per layer for one trace; values sum to the root duration.

    ``tracer_or_spans`` is a :class:`Tracer` or an iterable of spans;
    ``trace_id`` selects the trace (defaulting to the root's, or to the
    single trace present).  Open spans are clipped to the root interval.
    """
    if isinstance(tracer_or_spans, Tracer):
        spans = list(tracer_or_spans.spans)
    else:
        spans = list(tracer_or_spans)
    if root is not None and trace_id is None:
        trace_id = root.trace_id
    if trace_id is not None:
        spans = [s for s in spans if s.trace_id == trace_id]
    if not spans:
        return {}
    if root is None:
        roots = [s for s in spans if s.parent_id is None]
        if not roots:
            raise ValueError("trace has no root span")
        root = roots[0]
    if root.end is None:
        raise ValueError("root span is still open")

    lo, hi = root.start, root.end
    if hi <= lo:
        return {root.layer: 0.0}
    depths = _span_depths(spans)

    # Clip every span to the root window; open spans end at the window.
    clipped: list[tuple[float, float, int, Span]] = []
    for span in spans:
        start = max(span.start, lo)
        end = min(span.end if span.end is not None else hi, hi)
        if end > start:
            clipped.append((start, end, depths[span.span_id], span))

    boundaries = sorted({t for start, end, _, _ in clipped
                         for t in (start, end)})
    clipped.sort(key=lambda item: item[0])
    # Sweep the elementary intervals left to right.  A span joins the
    # heap when the sweep reaches its start and is dropped lazily once
    # it ends; the heap top is the winner.  Deepest wins; ties go to
    # the latest-started (unclipped start), then newest span.
    active: list[tuple] = []
    joined = 0
    totals: dict[str, float] = {}
    for left, right in zip(boundaries, boundaries[1:]):
        while joined < len(clipped) and clipped[joined][0] <= left:
            _, end, depth, span = clipped[joined]
            heapq.heappush(active, (-depth, -span.start, -span.span_id,
                                    end, span))
            joined += 1
        while active[0][3] <= left:
            heapq.heappop(active)
        winner = active[0][4]
        totals[winner.layer] = totals.get(winner.layer, 0.0) + (right - left)
    return totals


def format_breakdown(breakdown: dict[str, float]) -> str:
    """Compact one-line rendering, e.g. for a benchmark table cell."""
    parts = []
    for layer in LAYER_ORDER:
        if layer in breakdown:
            label = _LAYER_ABBREV.get(layer, layer)
            parts.append(f"{label}={breakdown[layer]:.3f}")
    for layer in sorted(set(breakdown) - set(LAYER_ORDER)):
        parts.append(f"{layer}={breakdown[layer]:.3f}")
    return " ".join(parts)


def render_breakdown_table(breakdown: dict[str, float]) -> str:
    """An aligned text table with per-layer share of the total."""
    title = "per-layer latency breakdown"
    total = sum(breakdown.values())
    lines = [title, "-" * len(title),
             f"{'layer':<12}{'seconds':>10}  {'share':>6}"]
    ordered = [layer for layer in LAYER_ORDER if layer in breakdown]
    ordered += sorted(set(breakdown) - set(LAYER_ORDER))
    for layer in ordered:
        seconds = breakdown[layer]
        share = (100.0 * seconds / total) if total > 0 else 0.0
        lines.append(f"{layer:<12}{seconds:>10.4f}  {share:>5.1f}%")
    lines.append(f"{'total':<12}{total:>10.4f}")
    return "\n".join(lines)


def _span_dict(span: Span) -> dict:
    return {
        "name": span.name,
        "layer": span.layer,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start": span.start,
        "end": span.end,
        "duration": (span.end - span.start
                     if span.end is not None else None),
        "attrs": span.attrs,
    }


def trace_to_dict(tracer_or_spans, trace_id: Optional[int] = None) -> dict:
    """JSON-ready export of one trace (or of every span when no id)."""
    if isinstance(tracer_or_spans, Tracer):
        spans: Iterable[Span] = tracer_or_spans.spans
    else:
        spans = tracer_or_spans
    selected = [s for s in spans
                if trace_id is None or s.trace_id == trace_id]
    out: dict = {"trace_id": trace_id, "spans": [_span_dict(s)
                                                 for s in selected]}
    roots = [s for s in selected if s.parent_id is None and s.end is not None]
    if len(roots) == 1:
        breakdown = layer_breakdown(selected, root=roots[0])
        out["root"] = _span_dict(roots[0])
        out["breakdown"] = breakdown
        out["breakdown_total"] = sum(breakdown.values())
    return out


def render_trace_json(tracer_or_spans,
                      trace_id: Optional[int] = None) -> str:
    return json.dumps(trace_to_dict(tracer_or_spans, trace_id=trace_id),
                      indent=2, sort_keys=True)
