"""Shared plumbing for the table/figure benchmarks.

Every benchmark is a plain test.  It measures the simulated system,
emits the paper's rows next to the measured values through the
``golden`` fixture (see ``conftest.py``), asserts the paper's shape
claims, and ends with ``golden.check()``, which compares the emitted
text byte for byte with ``golden/<test name>.txt``.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

__all__ = ["Golden", "run_transaction"]

GOLDEN_DIR = Path(__file__).parent / "golden"


class Golden:
    """The text one benchmark reproduces, pinned by its golden file."""

    def __init__(self, name: str):
        self.path = GOLDEN_DIR / f"{name}.txt"
        self.lines: list[str] = []

    def emit(self, *lines: str) -> None:
        self.lines.extend(lines)

    def table(self, title: str, headers: list[str], rows: list[list],
              widths: list[int] | None = None) -> None:
        """Emit an aligned table."""
        if widths is None:
            widths = [
                max(len(str(headers[i])),
                    *(len(str(row[i])) for row in rows)) if rows
                else len(str(headers[i]))
                for i in range(len(headers))
            ]
        self.emit("", title, "-" * len(title))
        self.emit("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
        self.emit("  ".join("-" * w for w in widths))
        for row in rows:
            self.emit("  ".join(str(cell).ljust(w)
                                for cell, w in zip(row, widths)))
        self.emit("")

    def check(self) -> None:
        """Fail unless the emitted text equals the golden file.

        A missing golden file is written from this run and the test
        fails, so a new reproduction is read before it is committed.
        """
        text = "\n".join(self.lines) + "\n"
        if not self.path.exists():
            GOLDEN_DIR.mkdir(exist_ok=True)
            self.path.write_bytes(text.encode("utf-8"))
            pytest.fail(f"wrote missing golden file {self.path}; "
                        "check it and commit it", pytrace=False)
        # Bytes, not read_text(): no newline translation on any platform.
        expected = self.path.read_bytes().decode("utf-8")
        if text != expected:
            diff = difflib.unified_diff(
                expected.splitlines(keepends=True),
                text.splitlines(keepends=True), str(self.path), "this run")
            pytest.fail("reproduction differs from its golden file:\n"
                        + "".join(diff), pytrace=False)


def run_transaction(system, engine, handle, flow, horizon: float = 600.0):
    """Run one flow to completion and return its TransactionRecord."""
    done = engine.run_flow(handle, flow)
    system.run(until=system.sim.now + horizon)
    assert done.triggered, "transaction did not finish within the horizon"
    return done.value
