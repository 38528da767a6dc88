"""Network nodes: interfaces, IP forwarding, protocol demux, topologies.

A :class:`Node` is anything with an IP stack — a desktop, a router, a
WAP gateway, a web server host, or (via subclassing in
:mod:`repro.devices`) a mobile station.  Nodes receive packets on
interfaces, deliver locally when the destination matches one of their
addresses, and otherwise forward using their routing table.

:class:`Network` is the topology container: it owns nodes and links,
allocates addresses, and recomputes static routes.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Counter, Simulator
from .addressing import AddressAllocator, IPAddress, Subnet
from .link import Link, LinkEnd
from .packet import PROTO_IPIP, Packet
from .routing import Route, RoutingTable, compute_static_routes

__all__ = ["Interface", "Node", "Network"]

ProtocolHandler = Callable[["Node", Packet], None]


class Interface:
    """A network attachment point with an address on a subnet."""

    def __init__(self, node: "Node", name: str,
                 address: Optional[IPAddress] = None,
                 subnet: Optional[Subnet] = None):
        self.node = node
        self.name = name
        self.address = address
        self.subnet = subnet
        self.link: Optional[Link] = None
        # The link end this interface transmits into (set by attach).
        self._tx: Optional[LinkEnd] = None
        self.is_up = True

    def attach(self, link: Link) -> None:
        if self.link is not None:
            raise RuntimeError(f"interface {self} already attached")
        self.link = link
        self._tx = link.ends[link.attach(self)]

    def detach(self) -> None:
        """Administratively detach (used for handoff simulations)."""
        self.is_up = False

    def peer(self) -> Optional["Interface"]:
        """The interface at the other end of the link, if any."""
        if self.link is None:
            return None
        return self.link.other_iface(self)

    def send(self, packet: Packet) -> bool:
        """Hand a packet to the attached medium."""
        if not self.is_up or self._tx is None:
            self.node.stats.incr("iface_down_drops")
            return False
        return self._tx.enqueue(packet)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Interface {self.node.name}:{self.name} {self.address}>"


class Node:
    """An IP host/router."""

    def __init__(self, sim: Simulator, name: str, forwarding: bool = False):
        self.sim = sim
        self.name = name
        self.forwarding = forwarding
        self.interfaces: list[Interface] = []
        self._iface_by_name: dict[str, Interface] = {}
        self._primary_address: Optional[IPAddress] = None
        self.routing_table = RoutingTable()
        # Stub subnets this node claims reachability for (e.g. an access
        # point's wireless subnet); propagated by compute_static_routes.
        self.announced_subnets: list[Subnet] = []
        self.stats = Counter()
        # Integer values of every owned address; kept in sync by
        # add_interface (interfaces are never removed and an interface
        # address never changes after construction).
        self._owned_values: set[int] = set()
        self._handlers: dict[str, ProtocolHandler] = {}
        # Received (packet, iface) pairs waiting their turn; the receiver
        # takes one per wakeup call (see _on_rx).
        self._rx: list[tuple[Packet, Interface]] = []
        self._rx_idle = False
        # Hooks that see every packet before normal processing; used by
        # snoop agents and foreign agents.  A hook returning True consumes
        # the packet.
        self.rx_taps: list[Callable[[Packet, Interface], bool]] = []
        sim._call(self._take_next_rx)

    # -- configuration -----------------------------------------------------
    def add_interface(self, name: str, address: Optional[IPAddress] = None,
                      subnet: Optional[Subnet] = None) -> Interface:
        iface = Interface(self, name, address=address, subnet=subnet)
        self.interfaces.append(iface)
        self._iface_by_name[name] = iface
        if address is not None:
            self._owned_values.add(address.value)
            # Interfaces are append-only and addresses immutable, so the
            # first address to arrive is the primary one forever.
            if self._primary_address is None:
                self._primary_address = address
        return iface

    def assign_address(self, address: IPAddress) -> Interface:
        """Give the node an address on a virtual (link-less) interface.

        Used for provisioning mobile stations: the address stays fixed
        while radio attachments come and go (the Mobile IP model).
        """
        iface = self.add_interface(
            name=f"lo{len(self.interfaces)}", address=address
        )
        return iface

    def iface(self, name: str) -> Interface:
        try:
            return self._iface_by_name[name]
        except KeyError:
            raise KeyError(
                f"no interface {name!r} on node {self.name}") from None

    def register_protocol(self, proto: str, handler: ProtocolHandler) -> None:
        """Install the upper-layer handler for a protocol tag."""
        self._handlers[proto] = handler

    def owns_address(self, address: IPAddress) -> bool:
        return address.value in self._owned_values

    @property
    def primary_address(self) -> IPAddress:
        address = self._primary_address
        if address is None:
            raise RuntimeError(f"node {self.name} has no address")
        return address

    # -- data path -----------------------------------------------------------
    def enqueue_rx(self, packet: Packet, iface: Interface) -> None:
        """Called by the medium when a packet arrives on ``iface``."""
        if self._rx_idle:
            self._rx_idle = False
            self.sim._call(self._on_rx, (packet, iface))
        else:
            self._rx.append((packet, iface))

    def _take_next_rx(self, _=None) -> None:
        if self._rx:
            self.sim._call(self._on_rx, self._rx.pop(0))
        else:
            self._rx_idle = True

    def _on_rx(self, received: tuple) -> None:
        # One wakeup call per packet, as a receive loop would take.
        packet, iface = received
        packet.hops.append(self.name)
        if self.rx_taps and self._tapped(packet, iface):
            pass  # a tap consumed the packet
        elif packet.dst.value in self._owned_values:
            self._deliver_local(packet)
        elif self.forwarding:
            self.forward(packet)
        else:
            self.stats.incr("not_for_me_drops")
        # Take the next packet: _take_next_rx, inlined to save a frame
        # on every hop.
        if self._rx:
            self.sim._call(self._on_rx, self._rx.pop(0))
        else:
            self._rx_idle = True

    def _tapped(self, packet: Packet, iface: Interface) -> bool:
        """Whether an rx tap consumed the packet."""
        for tap in list(self.rx_taps):
            if tap(packet, iface):
                return True
        return False

    def _deliver_local(self, packet: Packet) -> None:
        proto = packet.proto
        if proto == PROTO_IPIP:
            inner = packet.decapsulate()
            self.stats.incr("decapsulated")
            # Re-process the inner datagram as if it had just arrived.
            if inner.dst.value in self._owned_values:
                self._deliver_local(inner)
            else:
                self.forward(inner, force=True)
            return
        handler = self._handlers.get(proto)
        if handler is None:
            self.stats.incr("no_handler_drops")
            return
        # The per-packet counters are bumped in place, not through
        # Counter.incr.
        counts = self.stats._counts
        counts["delivered_local"] = counts.get("delivered_local", 0) + 1
        handler(self, packet)

    def send_ip(self, packet: Packet) -> bool:
        """Originate a datagram from this node."""
        packet.created_at = packet.created_at or self.sim.now
        if packet.dst.value in self._owned_values:
            # Loopback delivery.
            self._deliver_local(packet)
            return True
        return self.forward(packet, originating=True)

    def forward(self, packet: Packet, originating: bool = False,
                force: bool = False) -> bool:
        """Route a packet toward its destination."""
        if not originating and not force:
            packet.ttl -= 1
            if packet.ttl <= 0:
                self.stats.incr("ttl_drops")
                return False
        route = self.routing_table.lookup(packet.dst)
        if route is None:
            self.stats.incr("no_route_drops")
            return False
        iface = self._iface_by_name[route.iface_name]
        # Interface.send, inlined: a downed or unattached interface
        # drops the packet.
        tx = iface._tx
        if not iface.is_up or tx is None:
            self.stats.incr("iface_down_drops")
        elif tx.enqueue(packet):
            counts = self.stats._counts
            counts["forwarded"] = counts.get("forwarded", 0) + 1
            return True
        self.stats.incr("tx_drops")
        return False


class Network:
    """Topology container: nodes, links, address allocation, routing."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.nodes: list[Node] = []
        self.links: list[Link] = []
        self._subnet_allocators: dict[Subnet, AddressAllocator] = {}
        self._names: set[str] = set()

    def add_node(self, name: str, forwarding: bool = False) -> Node:
        if name in self._names:
            raise ValueError(f"duplicate node name {name!r}")
        self._names.add(name)
        node = Node(self.sim, name, forwarding=forwarding)
        self.nodes.append(node)
        return node

    def adopt(self, node: Node) -> Node:
        """Register an externally-constructed node (e.g. a MobileStation)."""
        if node.name in self._names:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._names.add(node.name)
        self.nodes.append(node)
        return node

    def node(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node {name!r}")

    def _allocator(self, subnet: Subnet) -> AddressAllocator:
        if subnet not in self._subnet_allocators:
            self._subnet_allocators[subnet] = AddressAllocator(subnet)
        return self._subnet_allocators[subnet]

    def connect(
        self,
        a: Node,
        b: Node,
        subnet: Subnet,
        bandwidth_bps: float = 10_000_000.0,
        delay: float = 0.001,
        loss_rate: float = 0.0,
        loss_stream=None,
        queue_capacity: int = 64,
    ) -> Link:
        """Create a link between two nodes and address both ends."""
        allocator = self._allocator(subnet)
        link = Link(
            self.sim,
            name=f"{a.name}<->{b.name}",
            bandwidth_bps=bandwidth_bps,
            delay=delay,
            loss_rate=loss_rate,
            loss_stream=loss_stream,
            queue_capacity=queue_capacity,
        )
        for node in (a, b):
            iface = node.add_interface(
                name=f"eth{len(node.interfaces)}",
                address=allocator.allocate(),
                subnet=subnet,
            )
            iface.attach(link)
        self.links.append(link)
        return link

    def build_routes(self) -> None:
        """(Re)compute static shortest-path routes for every node."""
        compute_static_routes(self)

    def find_node_by_address(self, address: IPAddress) -> Optional[Node]:
        for node in self.nodes:
            if node.owns_address(address):
                return node
        return None
