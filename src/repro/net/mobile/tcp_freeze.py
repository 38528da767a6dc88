"""Fast retransmission after handoff (Caceres & Iftode [2]).

During a handoff the mobile is unreachable; segments in flight are
lost and the fixed sender's retransmission timer backs off
exponentially, so after reconnection the connection can sit idle for
seconds waiting for the (inflated) RTO.  The fix: the moment the
handoff completes, the mobile's TCP emits three duplicate ACKs, which
the fixed sender interprets as a fast-retransmit signal and resumes
immediately at the much milder fast-recovery penalty.

:class:`HandoffNotifier` wires this to the rest of the stack: register
the mobile's connections, call :meth:`handoff_complete` after each
re-attachment (e.g. right after Mobile IP registration succeeds).
"""

from __future__ import annotations

from ...sim import Counter
from ..tcp import TCPConnection

__all__ = ["HandoffNotifier"]


class HandoffNotifier:
    """Triggers TCP fast retransmission on the fixed sender after handoff."""

    def __init__(self):
        self._connections: list[TCPConnection] = []
        self.stats = Counter()

    def track(self, connection: TCPConnection) -> None:
        """Register a connection whose receiver lives on the mobile."""
        if connection not in self._connections:
            self._connections.append(connection)

    def handoff_complete(self) -> None:
        """Signal every tracked (still-open) connection."""
        for connection in list(self._connections):
            if connection.state == TCPConnection.CLOSED:
                self._connections.remove(connection)
                continue
            connection.signal_handoff_complete()
            self.stats.incr("signals_sent")
