"""Microbrowsers: the client side of mobile middleware.

The paper's mobile stations run *microbrowsers* that display WML (WAP)
or cHTML (i-mode) content on tiny screens.  Rendering here is real
work: parsing cost scales with document size and format (binary-encoded
WMLC decks decode cheaper than verbose HTML), layout wraps text to the
device's screen width, and the whole job is charged to the station's
CPU and battery — so the same page takes longer on a Palm i705 than on
a Toshiba E740, which is what the Table 2 benchmark measures.
"""

from __future__ import annotations

import re
from typing import Optional

from ..obs import end_span, start_span
from ..sim import Event
from .hardware import BatteryDeadError, OutOfMemoryError
from .os import TaskLimitError
from .station import MobileStation

__all__ = ["RenderedPage", "Microbrowser", "UnsupportedContentError",
           "CYCLES_PER_BYTE"]

# Parse+layout cost by content type (CPU cycles per payload byte).
CYCLES_PER_BYTE = {
    "text/vnd.wap.wml": 450.0,          # verbose XML
    "application/vnd.wap.wmlc": 220.0,  # tokenised binary: cheap to decode
    "text/html": 900.0,                 # full HTML: heaviest
    "text/x-chtml": 500.0,              # compact HTML subset
    "text/plain": 120.0,
    # Palm Web Clipping: pre-digested text, cheapest of all to show.
    "text/x-palm-clipping": 100.0,
}

RENDER_MEMORY_FACTOR_KB = 3  # working set: ~3 KB of RAM per KB of markup


class UnsupportedContentError(Exception):
    """Raised for content types the microbrowser cannot display."""


class RenderedPage:
    """The outcome of rendering one document."""

    def __init__(self, content_type: str, lines: list[str],
                 render_seconds: float, truncated: bool, source_bytes: int):
        self.content_type = content_type
        self.lines = lines
        self.render_seconds = render_seconds
        self.truncated = truncated
        self.source_bytes = source_bytes

    @property
    def visible_text(self) -> str:
        return "\n".join(self.lines)


class Microbrowser:
    """A content renderer bound to one mobile station."""

    def __init__(self, station: MobileStation,
                 accepted_types: Optional[set[str]] = None):
        self.station = station
        self.accepted_types = accepted_types or set(CYCLES_PER_BYTE)
        self.pages_rendered = 0

    def accepts(self, content_type: str) -> bool:
        return content_type in self.accepted_types

    def render(self, body: bytes, content_type: str, trace=None) -> Event:
        """Render a document; the event yields a :class:`RenderedPage`.

        Raises :class:`UnsupportedContentError` immediately for alien
        content types (a WML-only phone handed raw HTML, for example —
        the problem WAP gateways exist to solve).
        """
        if not self.accepts(content_type) or content_type not in CYCLES_PER_BYTE:
            raise UnsupportedContentError(
                f"{self.station.name} cannot display {content_type!r}"
            )
        station = self.station
        sim = station.sim
        result = sim.event()
        size = len(body)
        cycles = size * CYCLES_PER_BYTE[content_type]
        mem_kb = max(1, size * RENDER_MEMORY_FACTOR_KB // 1024)
        tag = f"render-{self.pages_rendered}"
        station.memory.allocate(tag, mem_kb)
        span = None
        if trace is not None:
            span = start_span(sim, "device.render", "device", parent=trace,
                              content_type=content_type, bytes=size)

        def job(env):
            start = env.now
            try:
                yield station.compute(cycles, task="render")
                lines, truncated = self._layout(body)
                elapsed = env.now - start
                station.screen_on(elapsed)
                self.pages_rendered += 1
                end_span(sim, span, ok=True)
                result.succeed(RenderedPage(
                    content_type=content_type,
                    lines=lines,
                    render_seconds=elapsed,
                    truncated=truncated,
                    source_bytes=size,
                ))
            except (BatteryDeadError, OutOfMemoryError,
                    TaskLimitError) as exc:
                # Device faults (dead battery, task limits) surface to
                # whoever awaits the render, not as a simulator crash.
                end_span(sim, span, ok=False)
                result.fail(exc)
            finally:
                station.memory.free(tag)

        sim.spawn(job(sim), name=f"{station.name}-render")
        return result

    def _layout(self, body: bytes) -> tuple[list[str], bool]:
        """Strip markup and wrap to the device screen."""
        text = _strip_markup(body.decode("utf-8", errors="replace"))
        screen = self.station.spec.screen
        width = screen.chars_per_line
        lines: list[str] = []
        for paragraph in text.split("\n"):
            words = paragraph.split()
            if not words:
                continue
            current = ""
            for word in words:
                if not current:
                    current = word
                elif len(current) + 1 + len(word) <= width:
                    current += " " + word
                else:
                    lines.append(current)
                    current = word
            if current:
                lines.append(current)
        limit = screen.visible_lines * 20  # generous scrollback
        truncated = len(lines) > limit
        return lines[:limit], truncated


# A tag up to, not including, its ">"; each ">" then becomes a space.
_TAG_BODY = re.compile(r"<[^>]*")


def _strip_markup(text: str) -> str:
    """Remove tags, normalise entities and whitespace (crude but fair)."""
    plain = _TAG_BODY.sub("", text).replace(">", " ")
    for entity, char in [("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"),
                         ("&nbsp;", " "), ("&quot;", '"')]:
        plain = plain.replace(entity, char)
    return plain
