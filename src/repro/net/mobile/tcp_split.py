"""Split-connection TCP (I-TCP, Yavatkar & Bhagawat [16]).

The path between the mobile host and the fixed host is split at the
base station / gateway into two independent TCP connections: one over
the (short, lossy) wireless hop and one over the wired Internet.  Each
half runs its own congestion control, so wireless losses trigger
*local* recovery on the wireless half and never shrink the wired
sender's window.

:class:`SplitRelay` is the gateway-side implementation: it accepts
connections on a listen port and, per session, opens its own wired
connection to the configured fixed host, then pumps bytes in both
directions.
"""

from __future__ import annotations

from ...sim import Counter
from ..addressing import IPAddress
from ..node import Node
from ..tcp import TCPConnection, tcp_stack

__all__ = ["SplitRelay"]

# Segment sizes of the two halves: small on the lossy wireless hop, a
# full Ethernet MSS on the wired one.
WIRELESS_MSS = 512
WIRED_MSS = 1460


class _Session:
    def __init__(self, wireless: TCPConnection, wired: TCPConnection,
                 bytes_up: int = 0, bytes_down: int = 0):
        self.wireless = wireless
        self.wired = wired
        self.bytes_up = bytes_up
        self.bytes_down = bytes_down


class SplitRelay:
    """An I-TCP style indirection point on a gateway node."""

    def __init__(
        self,
        gateway: Node,
        listen_port: int,
        target_address: IPAddress,
        target_port: int,
    ):
        self.gateway = gateway
        self.sim = gateway.sim
        self.tcp = tcp_stack(gateway)
        self.listen_port = listen_port
        self.target_address = target_address
        self.target_port = target_port
        self.sessions: list[_Session] = []
        self.stats = Counter()
        self._listener = self.tcp.listen(listen_port, mss=WIRELESS_MSS)
        self.sim.spawn(self._accept_loop(), name=f"split-relay@{gateway.name}")

    def _accept_loop(self):
        while True:
            wireless_conn = yield self._listener.accept()
            self.stats.incr("sessions")
            self.sim.spawn(
                self._start_session(wireless_conn),
                name="split-session",
            )

    def _start_session(self, wireless_conn: TCPConnection):
        wired_conn = self.tcp.connect(
            self.target_address, self.target_port, mss=WIRED_MSS
        )
        yield wired_conn.established_event
        session = _Session(wireless=wireless_conn, wired=wired_conn)
        self.sessions.append(session)
        self.sim.spawn(self._pump(session, "up"), name="split-pump-up")
        self.sim.spawn(self._pump(session, "down"), name="split-pump-down")

    def _pump(self, session: _Session, direction: str):
        """Copy bytes from one half to the other until EOF."""
        if direction == "up":
            src, dst = session.wireless, session.wired
        else:
            src, dst = session.wired, session.wireless
        while True:
            chunk = yield src.recv()
            if chunk == b"":
                dst.close()
                return
            if direction == "up":
                session.bytes_up += len(chunk)
            else:
                session.bytes_down += len(chunk)
            self.stats.incr(f"bytes_{direction}", len(chunk))
            dst.send(chunk)
