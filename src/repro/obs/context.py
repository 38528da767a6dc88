"""Trace context: the identity a transaction carries across components.

A :class:`TraceContext` is the (trace_id, span_id) pair that names a
parent span.  It rides as a Python attribute beside the data, never in
it: a client stamps it on its TCP connection (``conn.trace``), the
connection copies it onto every :class:`~repro.net.packet.Packet` it
sends (``packet.trace``), the receiving connection takes it back off,
and the web server hands it to the request as ``HTTPRequest.trace``.
So one end-to-end transaction can be reassembled from spans recorded
in six different components.  Carrying a context is observational
only: it never changes scheduling, and it never changes a byte that
any frame, header or packet puts on the wire.
"""

from __future__ import annotations

__all__ = ["TraceContext"]


class TraceContext:
    """Immutable (trace_id, span_id) pair identifying a parent span."""

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id
