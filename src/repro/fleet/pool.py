"""The gateway shard pool.

A :class:`GatewayFleet` owns N running middleware instances ("members")
of any gateway class — WAP gateway, i-mode centre or web-clipping
proxy.  Member i listens on ``base_port + i * port_stride`` (the PR 8
registry scheme: endpoints are always published in the name registry
and derived from the primary's actual port, never hardcoded), and the
fleet's consistent-hash ring decides which member serves which
session.

Members are never destroyed mid-run: retirement is *graceful* — the
member leaves the ring so no new request routes to it, while in-flight
requests on its still-running gateway complete normally.  That is what
makes canary replacement and rollback lossless (zero stranded
sessions), and it mirrors real connection-draining balancers.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Counter, Simulator
from .ring import HashRing

__all__ = ["FleetMember", "GatewayFleet"]


class FleetMember:
    """One gateway instance in the pool."""

    __slots__ = ("index", "name", "gateway", "make_session", "port",
                 "cell_index", "version", "handicap", "state", "health",
                 "probe_failures", "probe_successes", "added_at",
                 "retired_at", "retire_reason")

    def __init__(self, index: int, name: str, gateway, make_session,
                 port: int, cell_index: int, version: str,
                 handicap: float, added_at: float):
        self.index = index
        self.name = name
        self.gateway = gateway
        self.make_session = make_session
        self.port = port
        self.cell_index = cell_index
        self.version = version
        self.handicap = handicap
        self.state = "active"      # active | retired
        self.health = "healthy"    # healthy | ejected
        self.probe_failures = 0
        self.probe_successes = 0
        self.added_at = added_at
        self.retired_at: Optional[float] = None
        self.retire_reason: Optional[str] = None

    @property
    def serving(self) -> bool:
        return self.state == "active" and self.health == "healthy"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "port": self.port,
            "cell": self.cell_index,
            "version": self.version,
            "state": self.state,
            "health": self.health,
            "added_at": self.added_at,
            "retired_at": self.retired_at,
            "retire_reason": self.retire_reason,
        }


class GatewayFleet:
    """N middleware instances plus the ring that shards load over them.

    ``make_gateway(index, port, version, handicap, cell_index)`` is the
    builder-supplied factory returning ``(gateway, make_session)``; the
    fleet only decides *when* members appear and which ports and cells
    they get, so it works unchanged for every middleware class.
    """

    def __init__(self, sim: Simulator, make_gateway: Callable,
                 base_port: int, port_stride: int = 20,
                 virtual_nodes: int = 64, n_cells: int = 1):
        if port_stride < 1:
            raise ValueError(
                f"port_stride must be >= 1, got {port_stride}")
        self.sim = sim
        self.ring = HashRing(virtual_nodes=virtual_nodes)
        self.base_port = base_port
        # The default stride of 20 leaves room for each member's WTLS
        # companion port and the single-gateway standby offset (10).
        self.port_stride = port_stride
        # Radio cells do not scale with middleware: members past the
        # initial pool share the existing cells round-robin.
        self.n_cells = max(1, n_cells)
        self._make_gateway = make_gateway
        self.members: dict[str, FleetMember] = {}
        self.stats = Counter()
        self._next_index = 0

    # -- membership --------------------------------------------------------
    def add_member(self, version: str = "v1", handicap: float = 0.0,
                   cell_index: Optional[int] = None) -> FleetMember:
        # Membership changes come only from the monitor loops (health
        # at phase 0.111, canary at 0.333).  Two at one instant would
        # apply in tie-break order (DESIGN §11); the offsets are kept
        # because the fleet scenarios' pinned bytes depend on them.
        index = self._next_index
        self._next_index += 1
        if cell_index is None:
            cell_index = index % self.n_cells
        port = self.base_port + index * self.port_stride
        name = f"gw-{index}"
        gateway, make_session = self._make_gateway(
            index, port, version, handicap, cell_index)
        member = FleetMember(index, name, gateway, make_session, port,
                             cell_index, version, handicap,
                             added_at=self.sim.now)
        self.members[name] = member
        self.ring.add(name)
        self.stats.incr("members_added")
        return member

    def retire_member(self, name: str,
                      reason: str = "retired") -> FleetMember:
        """Graceful drain: leave the ring, keep serving in-flight work."""
        member = self.members[name]
        if member.state != "active":
            return member
        member.state = "retired"
        member.retired_at = self.sim.now
        member.retire_reason = reason
        self.ring.remove(name)
        self.stats.incr("members_retired")
        return member

    # -- views -------------------------------------------------------------
    def member(self, name: str) -> FleetMember:
        return self.members[name]

    def active_members(self) -> list[FleetMember]:
        return [m for m in self.members.values() if m.state == "active"]

    def serving_members(self) -> list[FleetMember]:
        return [m for m in self.members.values() if m.serving]

    def gateways(self) -> list:
        """Every gateway ever started, in member order (for reports)."""
        return [m.gateway for m in self.members.values()]
