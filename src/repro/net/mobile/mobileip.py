"""Mobile IP: home agents, foreign agents, registration and tunnelling.

Implements the §5.2 description end-to-end:

* a :class:`HomeAgent` on the mobile node's home subnet intercepts
  datagrams addressed to the mobile's *home address* and tunnels them
  (IP-in-IP) to the registered *care-of address*;
* a :class:`ForeignAgent` on a visited subnet advertises itself,
  relays registration requests to the home agent, decapsulates
  tunnelled datagrams and delivers them over the visited link;
* a :class:`MobileIPClient` on the mobile host performs agent
  discovery and registration, and a :class:`RoamingManager` performs
  the physical handoff (re-linking the mobile under a new agent).

Transparency above IP — the paper's headline property — falls out: the
mobile keeps its home address across moves, so TCP connections and UDP
port bindings survive handoffs.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ...sim import Event, Simulator
from ..addressing import IPAddress, Subnet
from ..link import Link
from ..node import Interface, Network, Node
from ..packet import Packet
from ..routing import Route
from ..udp import udp_stack

__all__ = [
    "RegistrationRequest",
    "RegistrationReply",
    "HomeAgent",
    "ForeignAgent",
    "MobileIPClient",
    "RoamingManager",
    "MOBILE_IP_PORT",
]

MOBILE_IP_PORT = 434
DEFAULT_LIFETIME = 300.0
# How long a (de)registration waits for the agent's reply.
REGISTRATION_TIMEOUT = 3.0
# The radio link RoamingManager brings up toward each access router.
RADIO_BANDWIDTH_BPS = 2_000_000.0
RADIO_DELAY = 0.004

_registration_ids = itertools.count(1)


class RegistrationRequest:
    """Mobile -> FA -> HA registration message."""

    def __init__(self, home_address: IPAddress, home_agent: IPAddress,
                 care_of_address: IPAddress, lifetime: float,
                 identification: int):
        self.home_address = home_address
        self.home_agent = home_agent
        self.care_of_address = care_of_address
        self.lifetime = lifetime
        self.identification = identification


class RegistrationReply:
    """HA -> FA -> mobile registration outcome."""

    def __init__(self, home_address: IPAddress, accepted: bool,
                 lifetime: float, identification: int, reason: str = ""):
        self.home_address = home_address
        self.accepted = accepted
        self.lifetime = lifetime
        self.identification = identification
        self.reason = reason


class _Binding:
    def __init__(self, care_of_address: IPAddress, expires_at: float):
        self.care_of_address = care_of_address
        self.expires_at = expires_at


class HomeAgent:
    """Tunnel endpoint on the home network for roaming mobiles."""

    def __init__(self, router: Node):
        self.router = router
        self.sim: Simulator = router.sim
        self.udp = udp_stack(router)
        self._sock = self.udp.bind(MOBILE_IP_PORT)
        self.bindings: dict[IPAddress, _Binding] = {}
        router.rx_taps.append(self._intercept)
        self.sim.spawn(self._serve(), name=f"ha@{router.name}")

    # -- control plane ---------------------------------------------------
    def _serve(self):
        while True:
            message, src, src_port = yield self._sock.recv()
            if isinstance(message, RegistrationRequest):
                reply = self._register(message)
                self._sock.sendto(reply, src, src_port, data_size=32)

    def _register(self, request: RegistrationRequest) -> RegistrationReply:
        if request.home_agent != self.router.primary_address and \
                not self.router.owns_address(request.home_agent):
            return RegistrationReply(
                home_address=request.home_address,
                accepted=False,
                lifetime=0.0,
                identification=request.identification,
                reason="wrong home agent",
            )
        if request.lifetime <= 0:
            # Deregistration: the mobile is back home.
            self.bindings.pop(request.home_address, None)
            self.router.stats.incr("mip_deregistrations")
        else:
            self.bindings[request.home_address] = _Binding(
                care_of_address=request.care_of_address,
                expires_at=self.sim.now + request.lifetime,
            )
            self.router.stats.incr("mip_registrations")
        return RegistrationReply(
            home_address=request.home_address,
            accepted=True,
            lifetime=request.lifetime,
            identification=request.identification,
        )

    def binding_for(self, home_address: IPAddress) -> Optional[_Binding]:
        binding = self.bindings.get(home_address)
        if binding is None:
            return None
        if binding.expires_at < self.sim.now:
            del self.bindings[home_address]
            return None
        return binding

    # -- data plane --------------------------------------------------------
    def _intercept(self, packet: Packet, iface: Interface) -> bool:
        """Tunnel datagrams addressed to a registered home address."""
        if packet.proto == "ipip":
            return False  # never re-tunnel tunnel traffic
        binding = self.binding_for(packet.dst)
        if binding is None:
            return False
        outer = packet.encapsulate(
            outer_src=self.router.primary_address,
            outer_dst=binding.care_of_address,
        )
        self.router.stats.incr("mip_tunneled")
        self.router.forward(outer, originating=True)
        return True


class ForeignAgent:
    """Care-of endpoint on a visited network."""

    def __init__(self, router: Node):
        self.router = router
        self.sim: Simulator = router.sim
        self.udp = udp_stack(router)
        self._sock = self.udp.bind(MOBILE_IP_PORT)
        # home_address -> (iface toward the visitor, pending reply events)
        self.visitors: dict[IPAddress, Interface] = {}
        self._pending: dict[int, tuple[IPAddress, int]] = {}
        router.rx_taps.append(self._intercept)
        self.sim.spawn(self._serve(), name=f"fa@{router.name}")

    @property
    def care_of_address(self) -> IPAddress:
        return self.router.primary_address

    def _serve(self):
        while True:
            message, src, src_port = yield self._sock.recv()
            if isinstance(message, RegistrationRequest):
                self._relay_request(message, src, src_port)
            elif isinstance(message, RegistrationReply):
                self._relay_reply(message)

    def _relay_request(self, request: RegistrationRequest,
                       src: IPAddress, src_port: int) -> None:
        # Record where the mobile is attached so data can be delivered and
        # the reply routed back down the same link.
        iface = self._iface_toward_visitor(request.home_address)
        if iface is not None:
            self.visitors[request.home_address] = iface
            self._install_visitor_route(request.home_address, iface)
        self._pending[request.identification] = (src, src_port)
        rewritten = RegistrationRequest(
            home_address=request.home_address,
            home_agent=request.home_agent,
            care_of_address=self.care_of_address,
            lifetime=request.lifetime,
            identification=request.identification,
        )
        self._sock.sendto(rewritten, request.home_agent, MOBILE_IP_PORT,
                          data_size=32)
        self.router.stats.incr("mip_relayed_requests")

    def _relay_reply(self, reply: RegistrationReply) -> None:
        pending = self._pending.pop(reply.identification, None)
        if pending is None:
            return
        src, src_port = pending
        self._sock.sendto(reply, src, src_port, data_size=32)
        self.router.stats.incr("mip_relayed_replies")

    def _iface_toward_visitor(self, home_address: IPAddress) -> Optional[Interface]:
        for iface in self.router.interfaces:
            peer = iface.peer()
            if peer is not None and peer.node is not None and \
                    peer.node.owns_address(home_address):
                return iface
        return None

    def _install_visitor_route(self, home_address: IPAddress,
                               iface: Interface) -> None:
        self.router.routing_table.add(
            Route(subnet=Subnet(home_address, 32), iface_name=iface.name)
        )

    def remove_visitor(self, home_address: IPAddress) -> None:
        self.visitors.pop(home_address, None)
        self.router.routing_table.remove(Subnet(home_address, 32))

    def _intercept(self, packet: Packet, iface: Interface) -> bool:
        """Decapsulate tunnelled datagrams for our visitors."""
        if packet.proto != "ipip" or packet.dst != self.care_of_address:
            return False
        inner = packet.decapsulate()
        visitor_iface = self.visitors.get(inner.dst)
        if visitor_iface is None:
            self.router.stats.incr("mip_unknown_visitor")
            return True
        self.router.stats.incr("mip_decapsulated")
        visitor_iface.send(inner)
        return True


class MobileIPClient:
    """Registration logic living on the mobile host."""

    def __init__(self, mobile: Node, home_address: IPAddress,
                 home_agent_address: IPAddress):
        self.mobile = mobile
        self.sim: Simulator = mobile.sim
        self.home_address = home_address
        self.home_agent_address = home_agent_address
        self.udp = udp_stack(mobile)
        self.registered_with: Optional[IPAddress] = None

    def register_via(self, fa_address: IPAddress,
                     lifetime: float = DEFAULT_LIFETIME) -> Event:
        """Register through a foreign agent; event yields the reply or None."""
        result = self.sim.event()

        def register(env):
            sock = self.udp.bind()
            request = RegistrationRequest(
                home_address=self.home_address,
                home_agent=self.home_agent_address,
                care_of_address=fa_address,
                lifetime=lifetime,
                identification=next(_registration_ids),
            )
            try:
                sock.sendto(request, fa_address, MOBILE_IP_PORT, data_size=32)
                reply = yield sock.recv_with_timeout(REGISTRATION_TIMEOUT)
            finally:
                sock.close()
            if reply is None:
                result.succeed(None)
                return
            message, _, _ = reply
            if isinstance(message, RegistrationReply) and message.accepted:
                self.registered_with = fa_address
            result.succeed(message)

        self.sim.spawn(register(self.sim), name="mip-register")
        return result

    def deregister(self) -> Event:
        """Tell the home agent we are home again (lifetime 0)."""
        result = self.sim.event()

        def deregister(env):
            sock = self.udp.bind()
            request = RegistrationRequest(
                home_address=self.home_address,
                home_agent=self.home_agent_address,
                care_of_address=self.home_address,
                lifetime=0.0,
                identification=next(_registration_ids),
            )
            try:
                sock.sendto(request, self.home_agent_address,
                            MOBILE_IP_PORT, data_size=32)
                reply = yield sock.recv_with_timeout(REGISTRATION_TIMEOUT)
            finally:
                sock.close()
            self.registered_with = None
            result.succeed(reply[0] if reply else None)

        self.sim.spawn(deregister(self.sim), name="mip-deregister")
        return result


class RoamingManager:
    """Performs physical attachment changes for a mobile node.

    The mobile keeps a single logical "radio" attachment: a fresh link is
    created toward each access router on attach, and the previous link is
    torn down.  The mobile's routing table is rewritten to default through
    the current access router, while its *address* never changes — that is
    Mobile IP's contract.
    """

    DEFAULT_NET = Subnet(IPAddress(0), 0)

    def __init__(self, network: Network, mobile: Node,
                 home_address: IPAddress):
        self.network = network
        self.mobile = mobile
        self.home_address = home_address
        self.current_link: Optional[Link] = None
        self.current_iface: Optional[Interface] = None
        self.current_router: Optional[Node] = None
        self._radio_index = itertools.count()

    def attach(self, access_router: Node, loss_rate: float = 0.0,
               loss_stream=None) -> Link:
        """Bring up a radio link to ``access_router`` (dropping any old one)."""
        self.detach()
        link = Link(
            self.mobile.sim,
            name=f"radio-{self.mobile.name}-{access_router.name}",
            bandwidth_bps=RADIO_BANDWIDTH_BPS,
            delay=RADIO_DELAY,
            loss_rate=loss_rate,
            loss_stream=loss_stream,
        )
        mobile_iface = self.mobile.add_interface(
            name=f"radio{next(self._radio_index)}",
            address=self.home_address,
        )
        mobile_iface.attach(link)
        router_iface = access_router.add_interface(
            name=f"radio-to-{self.mobile.name}-{len(access_router.interfaces)}",
            address=access_router.primary_address,
        )
        router_iface.attach(link)
        self.network.links.append(link)
        # The access router can always reach its directly-attached mobile.
        access_router.routing_table.add(
            Route(subnet=Subnet(self.home_address, 32),
                  iface_name=router_iface.name)
        )
        self.current_link = link
        self.current_iface = mobile_iface
        self.current_router = access_router
        # Mobile routes everything through the access router.
        self.mobile.routing_table.clear()
        self.mobile.routing_table.add(
            Route(subnet=self.DEFAULT_NET, iface_name=mobile_iface.name,
                  next_hop=access_router.primary_address)
        )
        return link

    def detach(self) -> None:
        """Tear down the current radio link, if any."""
        if self.current_link is not None:
            self.current_link.take_down()
        if self.current_iface is not None:
            self.current_iface.detach()
        if self.current_router is not None and \
                self.current_link is not None:
            # Let the old router stop delivering to the dead link.
            other = self.current_link.other_iface(self.current_iface)
            if other is not None:
                other.detach()
        self.current_link = None
        self.current_iface = None
        self.current_router = None
