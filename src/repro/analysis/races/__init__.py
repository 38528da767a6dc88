"""Race and nondeterminism detection for the simulation kernel.

Two complementary engines, one goal: prove which same-timestamp events
commute and which mutable state crosses process boundaries, so that a
run's output never depends on the kernel's tie-breaking order.

* the **static side** (:mod:`.static`) extends the per-file AST linter
  into a whole-program pass: it builds a call graph over every
  ``yield``-driven process function in the tree, computes a
  shared-state access matrix (which module/class attributes are read
  and written by which processes), and flags cross-process mutable
  state touched without a kernel-ordered handoff.  The matrix is
  emitted as a JSON artifact, and ``python -m repro races --strict-on``
  fails CI on any finding under the strict paths.
* the **dynamic side** (:mod:`.sanitizer` + :mod:`.runner`) is a
  sanitizer mode wired into :meth:`repro.sim.Simulator.run`'s
  ``pop_batch`` dispatch loop: it records per-event read/write sets
  over instrumented shared state for every same-timestamp batch, flags
  non-commutative pairs (write/write or read/write overlap inside one
  batch), and *confirms* each hazard by deterministically replaying
  the run with the flagged batch dispatched in flipped order and
  diffing the final state hashes.

The heavyweight scenario runner (:func:`.runner.run_sanitize`) is
imported lazily by the CLI so that ``python -m repro lint`` never pays
for the full system stack.
"""

from .sanitizer import (
    AccessRecorder,
    BatchSanitizer,
    FlipDirective,
    TrackedDict,
    TrackedList,
    install_sanitizer,
    instrument_system,
)
from .static import (
    RaceAnalysis,
    StaticRaceAnalyzer,
    analyze_paths,
    analyze_sources,
)

__all__ = [
    "RaceAnalysis",
    "StaticRaceAnalyzer",
    "analyze_paths",
    "analyze_sources",
    "AccessRecorder",
    "BatchSanitizer",
    "FlipDirective",
    "TrackedDict",
    "TrackedList",
    "install_sanitizer",
    "instrument_system",
]
