"""Wireless LANs (paper §6.1): access points, radio links, ad hoc mode.

A :class:`RadioLink` is a half-duplex link whose bit rate and frame
error behaviour come from the :class:`~repro.wireless.channel.ChannelModel`
evaluated against the *current* positions of its two endpoints — move a
station and its throughput changes on the next frame, with MAC-level
retries soaking up moderate error rates the way real 802.11 does.

An :class:`AccessPoint` bridges the radio to the wired network
(one-hop infrastructure mode); :class:`AdHocNetwork` links stations
directly to each other ("if no APs are available, mobile devices can
form a wireless ad hoc network among themselves").
"""

from __future__ import annotations

from typing import Optional

from ..net.addressing import IPAddress, Subnet
from ..net.link import Link, LinkEnd
from ..net.node import Network, Node
from ..net.packet import Packet
from ..net.routing import Route
from ..sim import Resource, Simulator
from .channel import ChannelModel
from .mobility import Mobile, Position
from .standards import WLANStandard

__all__ = ["RadioLink", "AccessPoint", "Association", "AdHocNetwork"]

DEFAULT_RETRY_LIMIT = 4
RADIO_PROPAGATION_DELAY = 0.000_5  # MAC/PHY overhead stand-in


class RadioLink(Link):
    """A position-aware half-duplex wireless link."""

    layer = "wireless"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        endpoint_a: Mobile,
        endpoint_b: Mobile,
        standard: WLANStandard,
        channel: ChannelModel,
    ):
        super().__init__(
            sim,
            name=name,
            bandwidth_bps=standard.max_rate_bps,
            delay=RADIO_PROPAGATION_DELAY,
        )
        self.endpoint_a = endpoint_a
        self.endpoint_b = endpoint_b
        self.standard = standard
        self.channel = channel
        self.airtime = Resource(sim, capacity=1)  # half duplex
        self.retry_limit = DEFAULT_RETRY_LIMIT

    def current_budget(self):
        return self.channel.budget(
            self.endpoint_a.position, self.endpoint_b.position, self.standard
        )

    def transmit_rate(self, end: LinkEnd) -> float:
        return self.current_budget().rate_bps

    def frame_delivered(self, end: LinkEnd, packet: Packet) -> bool:
        return self.channel.frame_delivered(self.current_budget())


class Association:
    """A station's attachment to an access point."""

    def __init__(self, ap: "AccessPoint", station: Node,
                 station_mobile: Mobile, link: RadioLink,
                 station_iface, ap_iface):
        self.ap = ap
        self.station = station
        self.station_mobile = station_mobile
        self.link = link
        self.station_iface = station_iface
        self.ap_iface = ap_iface
        self.active = True

    def dissociate(self) -> None:
        if not self.active:
            return
        self.active = False
        self.link.take_down()
        self.station_iface.detach()
        self.ap_iface.detach()
        self.ap.router.routing_table.remove(
            Subnet(self.station.primary_address, 32)
        )
        self.ap.associations.remove(self)


class AccessPoint(Mobile):
    """An infrastructure-mode AP: radio on one side, wired on the other.

    ``router`` must already be attached to the wired network (and be
    forwarding).  Stations associate and get a default route through
    the AP; the AP gets a host route back over the radio.
    """

    def __init__(self, router: Node, position: Position,
                 standard: WLANStandard, channel: ChannelModel,
                 wireless_subnet: Optional[Subnet] = None):
        super().__init__(position)
        self.router = router
        self.standard = standard
        self.channel = channel
        self.wireless_subnet = wireless_subnet
        if wireless_subnet is not None:
            # Advertise the station block into the wired routing domain
            # (run Network.build_routes() after constructing the AP).
            router.announced_subnets.append(wireless_subnet)
        self.associations: list[Association] = []
        self._radio_index = 0

    @property
    def name(self) -> str:
        return self.router.name

    def in_range(self, position: Position) -> bool:
        snr = self.channel.snr_db(self.position.distance_to(position),
                                  self.standard)
        return snr >= self.standard.min_required_snr()

    def associate(self, station: Node, station_mobile: Mobile) -> Association:
        """Attach a station; raises if it is out of radio range."""
        if not self.in_range(station_mobile.position):
            raise ConnectionError(
                f"{station.name} is out of range of AP {self.name} "
                f"({station_mobile.position.distance_to(self.position):.0f} m)"
            )
        sim = self.router.sim
        link = RadioLink(
            sim,
            name=f"wlan-{station.name}-{self.name}",
            endpoint_a=station_mobile,
            endpoint_b=self,
            standard=self.standard,
            channel=self.channel,
        )
        self._radio_index += 1
        station_iface = station.add_interface(
            name=f"wlan{self._radio_index}",
            address=station.primary_address,
        )
        ap_iface = self.router.add_interface(
            name=f"radio-{station.name}-{self._radio_index}",
            address=self.router.primary_address,
        )
        station_iface.attach(link)
        ap_iface.attach(link)

        self.router.routing_table.add(
            Route(subnet=Subnet(station.primary_address, 32),
                  iface_name=ap_iface.name)
        )
        station.routing_table.clear()
        station.routing_table.add(
            Route(subnet=Subnet(IPAddress(0), 0),
                  iface_name=station_iface.name,
                  next_hop=self.router.primary_address)
        )
        association = Association(self, station, station_mobile, link,
                                  station_iface, ap_iface)
        self.associations.append(association)
        return association


class AdHocNetwork:
    """Peer-to-peer WLAN: direct radio links between stations.

    "If no APs are available, mobile devices can form a wireless ad hoc
    network among themselves and exchange data packets or perform
    business transactions as necessary."  Beyond single hops,
    :meth:`mesh` links every pair in mutual radio range and
    :meth:`compute_multihop_routes` installs shortest-path host routes
    so out-of-range peers communicate through intermediate stations
    (which must have ``forwarding=True``).
    """

    def __init__(self, sim: Simulator, standard: WLANStandard,
                 channel: ChannelModel):
        self.sim = sim
        self.standard = standard
        self.channel = channel
        self.links: list[RadioLink] = []
        self.members: list[tuple[Node, Mobile]] = []
        self._index = 0

    def join(self, node: Node, mobile: Mobile) -> None:
        """Register a station as a mesh member (see :meth:`mesh`)."""
        self.members.append((node, mobile))

    def mesh(self) -> int:
        """Link every pair of members in mutual range; returns link count."""
        created = 0
        linked = {
            frozenset((link.endpoint_a, link.endpoint_b))
            for link in self.links
        }
        for i, (a, ma) in enumerate(self.members):
            for b, mb in self.members[i + 1:]:
                if frozenset((ma, mb)) in linked:
                    continue
                budget = self.channel.budget(ma.position, mb.position,
                                             self.standard)
                if budget.in_range:
                    self.connect(a, ma, b, mb)
                    created += 1
        return created

    def compute_multihop_routes(self) -> None:
        """Install shortest-path routes between all members (BFS by hops)."""
        from collections import deque

        adjacency: dict[Node, list[tuple[Node, str]]] = {
            node: [] for node, _ in self.members
        }
        for link in self.links:
            ifaces = [link._attached[0], link._attached[1]]
            if None in ifaces:
                continue
            a_iface, b_iface = ifaces
            adjacency[a_iface.node].append((b_iface.node, a_iface.name))
            adjacency[b_iface.node].append((a_iface.node, b_iface.name))

        for source, _ in self.members:
            # BFS from source recording the first hop out of it.
            first_hop: dict[Node, tuple[str, Node]] = {}
            visited = {source}
            queue = deque()
            for neighbour, iface_name in adjacency[source]:
                if neighbour not in visited:
                    visited.add(neighbour)
                    first_hop[neighbour] = (iface_name, neighbour)
                    queue.append(neighbour)
            while queue:
                current = queue.popleft()
                for neighbour, _ in adjacency[current]:
                    if neighbour not in visited:
                        visited.add(neighbour)
                        first_hop[neighbour] = first_hop[current]
                        queue.append(neighbour)
            for target, (iface_name, gateway) in first_hop.items():
                source.routing_table.add(
                    Route(subnet=Subnet(target.primary_address, 32),
                          iface_name=iface_name,
                          next_hop=gateway.primary_address)
                )

    def connect(self, a: Node, a_mobile: Mobile,
                b: Node, b_mobile: Mobile) -> RadioLink:
        """Create a direct link; raises if the peers cannot hear each other."""
        budget = self.channel.budget(a_mobile.position, b_mobile.position,
                                     self.standard)
        if not budget.in_range:
            raise ConnectionError(
                f"{a.name} and {b.name} are out of mutual range "
                f"({budget.distance_m:.0f} m)"
            )
        link = RadioLink(
            self.sim,
            name=f"adhoc-{a.name}-{b.name}",
            endpoint_a=a_mobile,
            endpoint_b=b_mobile,
            standard=self.standard,
            channel=self.channel,
        )
        self._index += 1
        for node, peer in ((a, b), (b, a)):
            iface = node.add_interface(
                name=f"adhoc{self._index}",
                address=node.primary_address,
            )
            iface.attach(link)
            node.routing_table.add(
                Route(subnet=Subnet(peer.primary_address, 32),
                      iface_name=iface.name)
            )
        self.links.append(link)
        return link
