"""Cellular networks (paper §6.2, Table 5).

Models the property Table 5 actually classifies systems by — the
*switching technique*:

* **circuit-switched** systems (1G AMPS/TACS, 2G GSM/TDMA) dedicate a
  voice channel per call; a cell with all channels busy *blocks* new
  calls (classic Erlang behaviour), and data rides a reserved channel
  at the standard's fixed (slow) rate;
* **packet-switched** systems (CDMA, GPRS, EDGE, CDMA2000, WCDMA) are
  always-on: subscribers in a cell share the cell's data capacity
  through queueing, so extra load degrades throughput instead of
  refusing service.

1G systems are analog voice — attaching a data session raises
:class:`DataNotSupportedError`, which is exactly the paper's point that
"1G systems ... will not play a significant role in mobile commerce".
"""

from __future__ import annotations

from typing import Optional

from ..net.addressing import IPAddress, Subnet
from ..net.link import Link
from ..net.node import Network, Node
from ..net.routing import Route
from ..sim import Counter, Event, PriorityResource, Resource, Simulator
from .mobility import Mobile, Position
from .standards import CellularStandard

__all__ = [
    "QOS_PRIORITIES",
    "DataNotSupportedError",
    "CallBlockedError",
    "BaseStation",
    "CellularAttachment",
    "CellularNetwork",
]

CELL_LINK_DELAY = 0.050  # cellular air-interface latency is much higher
# Addresses of the core <-> base-station links.
BACKHAUL_SUBNET = "172.16.0.0/16"
HANDOFF_DELAY = 0.3


class DataNotSupportedError(Exception):
    """Raised when a data session is requested on a voice-only system."""


class CallBlockedError(Exception):
    """Raised when a circuit-switched cell has no free channel."""


# UMTS-style QoS classes mapped to scheduler priorities (lower = first).
QOS_PRIORITIES = {
    "conversational": 0,
    "streaming": 2,
    "interactive": 5,
    "background": 10,
}


class _CellLink(Link):
    """Radio bearer between a subscriber and its base station."""

    layer = "wireless"

    def __init__(self, sim: Simulator, name: str, rate_bps: float,
                 shared_airtime: Optional[Resource], loss_rate: float = 0.0,
                 loss_stream=None, qos_priority: int = 10):
        super().__init__(
            sim,
            name=name,
            bandwidth_bps=rate_bps,
            delay=CELL_LINK_DELAY,
            loss_rate=loss_rate,
            loss_stream=loss_stream,
        )
        self.airtime = shared_airtime  # None for dedicated circuits
        self.qos_priority = qos_priority
        self.retry_limit = 2

    def request_airtime(self):
        if isinstance(self.airtime, PriorityResource):
            return self.airtime.request(priority=self.qos_priority)
        return self.airtime.request()


class BaseStation(Mobile):
    """One cell: a tower router with radio coverage and channel pool."""

    def __init__(self, router: Node, position: Position,
                 standard: CellularStandard):
        super().__init__(position)
        self.router = router
        self.standard = standard
        self.channels = Resource(router.sim,
                                 capacity=standard.voice_channels_per_cell)
        # Packet-switched cells share downlink/uplink airtime; 3G cells
        # schedule it by QoS class (the paper: "3G systems with
        # quality-of-service (QoS) capability will dominate").
        if standard.switching == "packet":
            if standard.generation == "3G":
                self.shared_airtime = PriorityResource(router.sim,
                                                       capacity=1)
            else:
                self.shared_airtime = Resource(router.sim, capacity=1)
        else:
            self.shared_airtime = None
        self.stats = Counter()

    @property
    def name(self) -> str:
        return self.router.name

    def air_backlog(self) -> int:
        """Transmitters currently waiting for a shared-airtime grant.

        The RAN-side congestion signal: every subscriber (and the cell
        router itself) with a frame pending on the shared packet
        channel counts as one waiter.  Operator middleware uses this
        the way a GPRS BSC flow-controls the gateway — shed new work
        at the wired edge while the radio is backlogged, because bytes
        queued behind a saturated cell are already lost time.  Always
        0 for circuit-switched (voice-only) cells.
        """
        if self.shared_airtime is None:
            return 0
        return self.shared_airtime.queue_length

    def covers(self, position: Position) -> bool:
        return (self.position.distance_to(position)
                <= self.standard.typical_cell_radius_m)

    # -- voice (circuit) ---------------------------------------------------
    def place_voice_call(self, duration: float) -> Event:
        """Attempt a call; event yields True (carried) or raises-by-value.

        Blocking is immediate — a cell with every channel busy refuses
        the call rather than queueing it (Erlang-B behaviour).
        """
        sim = self.router.sim
        result = sim.event()
        if self.channels.available == 0:
            self.stats.incr("calls_blocked")
            result.succeed(False)
            return result

        request = self.channels.request()

        def call(env):
            yield request
            self.stats.incr("calls_carried")
            yield env.timeout(duration)
            self.channels.release(request)
            result.succeed(True)

        sim.spawn(call(sim), name=f"voice-call@{self.name}")
        return result


class CellularAttachment:
    """A subscriber's active data session in a cell."""

    def __init__(self, cellnet: "CellularNetwork", subscriber: Node,
                 mobile: Mobile, station: BaseStation,
                 qos_class: str = "background"):
        if qos_class not in QOS_PRIORITIES:
            raise ValueError(
                f"unknown QoS class {qos_class!r}; "
                f"known: {sorted(QOS_PRIORITIES)}"
            )
        self.cellnet = cellnet
        self.subscriber = subscriber
        self.mobile = mobile
        self.station = station
        self.qos_class = qos_class
        self.link: Optional[_CellLink] = None
        self._channel_request = None
        self._iface_pair = None
        self._attach_count = 0
        self.stats = Counter()
        self._bring_up(station)

    # -- attachment plumbing ------------------------------------------------
    def _bring_up(self, station: BaseStation) -> None:
        standard = station.standard
        sim = self.subscriber.sim
        if standard.switching == "circuit":
            # Reserve a dedicated channel for the data session.
            if station.channels.available == 0:
                station.stats.incr("calls_blocked")
                raise CallBlockedError(
                    f"no free channel in cell {station.name}"
                )
            self._channel_request = station.channels.request()
            shared = None
        else:
            self._channel_request = None
            shared = station.shared_airtime

        self._attach_count += 1
        link = _CellLink(
            sim,
            name=f"cell-{self.subscriber.name}-{station.name}",
            rate_bps=standard.data_rate_bps,
            shared_airtime=shared,
            loss_rate=self.cellnet.loss_rate,
            loss_stream=self.cellnet.loss_stream,
            qos_priority=QOS_PRIORITIES[self.qos_class],
        )
        sub_iface = self.subscriber.add_interface(
            name=f"cell{self._attach_count}",
            address=self.subscriber.primary_address,
        )
        bs_iface = station.router.add_interface(
            name=f"radio-{self.subscriber.name}-{self._attach_count}",
            address=station.router.primary_address,
        )
        sub_iface.attach(link)
        bs_iface.attach(link)
        station.router.routing_table.add(
            Route(subnet=Subnet(self.subscriber.primary_address, 32),
                  iface_name=bs_iface.name)
        )
        self.subscriber.routing_table.clear()
        self.subscriber.routing_table.add(
            Route(subnet=Subnet(IPAddress(0), 0),
                  iface_name=sub_iface.name,
                  next_hop=station.router.primary_address)
        )
        self.link = link
        self._iface_pair = (sub_iface, bs_iface)
        self.station = station
        station.stats.incr("data_sessions")
        # Steer core-bound subscriber traffic to the serving cell.
        core = self.cellnet.core
        toward_bs = core.routing_table.lookup(
            station.router.primary_address)
        if toward_bs is not None:
            core.routing_table.add(
                Route(subnet=Subnet(self.subscriber.primary_address, 32),
                      iface_name=toward_bs.iface_name,
                      next_hop=toward_bs.next_hop
                      or station.router.primary_address)
            )

    def _tear_down(self) -> None:
        if self.link is not None:
            self.link.take_down()
        if self._iface_pair is not None:
            for iface in self._iface_pair:
                iface.detach()
        self.station.router.routing_table.remove(
            Subnet(self.subscriber.primary_address, 32)
        )
        self.cellnet.core.routing_table.remove(
            Subnet(self.subscriber.primary_address, 32)
        )
        if self._channel_request is not None:
            self.station.channels.release(self._channel_request)
            self._channel_request = None
        self.link = None
        self._iface_pair = None

    # -- public API ---------------------------------------------------------
    def handoff_to(self, station: BaseStation) -> Event:
        """Move the session to another cell; event fires when back up."""
        sim = self.subscriber.sim
        done = sim.event()
        self._tear_down()

        def complete(env):
            yield env.timeout(HANDOFF_DELAY)
            self._bring_up(station)
            self.stats.incr("handoffs")
            done.succeed(self)

        sim.spawn(complete(sim), name="cell-handoff")
        return done

    def detach(self) -> None:
        self._tear_down()
        if self in self.cellnet.attachments:
            self.cellnet.attachments.remove(self)


class CellularNetwork:
    """A set of cells wired to a core router, per Table 5 standard."""

    def __init__(self, network: Network, core: Node,
                 standard: CellularStandard,
                 loss_rate: float = 0.0, loss_stream=None,
                 subscriber_subnet: Optional[str] = "10.200.0.0/16"):
        self.network = network
        self.core = core
        self.standard = standard
        self.loss_rate = loss_rate
        self.loss_stream = loss_stream
        self.base_stations: list[BaseStation] = []
        self.attachments: list[CellularAttachment] = []
        self._backhaul = Subnet.parse(BACKHAUL_SUBNET)
        self.subscriber_subnet = (
            Subnet.parse(subscriber_subnet) if subscriber_subnet else None
        )
        if self.subscriber_subnet is not None:
            # The core (GGSN-like) attracts all subscriber traffic; per-
            # attachment /32 routes then steer it to the right cell.
            self.core.announced_subnets.append(self.subscriber_subnet)

    def add_base_station(self, name: str, position: Position) -> BaseStation:
        router = self.network.add_node(name, forwarding=True)
        self.network.connect(
            self.core, router, self._backhaul,
            bandwidth_bps=100_000_000, delay=0.002,
        )
        station = BaseStation(router, position, self.standard)
        self.base_stations.append(station)
        return station

    def best_station(self, position: Position) -> Optional[BaseStation]:
        """Nearest base station that covers ``position``."""
        covering = [bs for bs in self.base_stations if bs.covers(position)]
        if not covering:
            return None
        return min(covering,
                   key=lambda bs: bs.position.distance_to(position))

    def attach(self, subscriber: Node, mobile: Mobile,
               qos_class: str = "background",
               cell: Optional[BaseStation] = None) -> CellularAttachment:
        """Open a data session for ``subscriber`` at its current position.

        ``qos_class`` (conversational/streaming/interactive/background)
        only influences scheduling on 3G cells; earlier generations
        have no QoS machinery, exactly as the paper says.

        ``cell`` pins the session to a specific base station, skipping
        coverage selection — the gateway-fleet builder shards stations
        over cells by consistent hash, the way an operator plans which
        BSC fronts which gateway, rather than by radio proximity.
        """
        if not self.standard.supports_data:
            raise DataNotSupportedError(
                f"{self.standard.name} is a {self.standard.generation} "
                "voice system; it carries no mobile-commerce data"
            )
        station = cell if cell is not None \
            else self.best_station(mobile.position)
        if station is None:
            raise ConnectionError(
                f"{subscriber.name} is outside every cell's coverage"
            )
        attachment = CellularAttachment(self, subscriber, mobile, station,
                                        qos_class=qos_class)
        self.attachments.append(attachment)
        return attachment

    def enable_auto_handoff(self, attachment: CellularAttachment) -> None:
        """Hand off automatically as the subscriber moves between cells."""

        def on_move(position: Position) -> None:
            best = self.best_station(position)
            if best is not None and best is not attachment.station:
                attachment.handoff_to(best)

        attachment.mobile.on_move.append(on_move)
