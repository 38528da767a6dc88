"""Gateway fleets: shard pool, balancer, health checks, canary.

DESIGN.md §14.  A :class:`GatewayFleet` runs N instances of any
middleware class (ports derived from the PR 8 registry scheme); a
:class:`LoadBalancer` fronts them with consistent-hash session
affinity; a :class:`HealthMonitor` ejects and re-admits members with
half-open probing; and a :class:`CanaryController` deploys a v2
variant to a fraction of the ring and auto-promotes or rolls it back
on sliding SLO windows.  All of it on the simulation clock, all
of it seeded — same-seed fleet runs are byte-identical.
"""

from .balancer import LoadBalancer
from .canary import CanaryController
from .health import HealthMonitor
from .pool import FleetMember, GatewayFleet
from .report import fleet_report
from .ring import HashRing

__all__ = [
    "CanaryController",
    "FleetMember",
    "GatewayFleet",
    "HashRing",
    "HealthMonitor",
    "LoadBalancer",
    "fleet_report",
]
