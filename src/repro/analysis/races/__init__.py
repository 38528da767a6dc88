"""Same-timestamp race detection for the simulation kernel.

Events sharing a timestamp are dispatched in tie-break order.  A run's
output must not depend on that order.  The sanitizer (:mod:`.sanitizer`
+ :mod:`.runner`) checks it: once installed, it sees every entry the
kernel dispatches and groups the entries sharing a timestamp into
batches.  It records per-event read/write sets over instrumented
shared state for every batch, flags non-commutative
pairs (write/write or read/write overlap inside one batch), and
*confirms* each hazard by deterministically replaying the run with the
flagged batch dispatched in flipped order and diffing the final state
hashes.

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

__all__ = [
    "AccessRecorder",
    "BatchSanitizer",
    "FlipDirective",
    "TrackedDict",
    "TrackedList",
    "install_sanitizer",
    "instrument_system",
]
