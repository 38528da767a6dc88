"""Wired-network substrate: addressing, links, IP forwarding, UDP/TCP, names.

This package implements component (v) of the paper's model — the wired
network an MC system shares with an EC system — plus the transport
machinery that the mobile extensions in :mod:`repro.net.mobile` modify.
"""

from .addressing import AddressAllocator, IPAddress, Subnet
from .dns import NameRegistry, ServiceEndpoint
from .ip import EchoReply, install_echo_responder, ping
from .link import Link
from .node import Interface, Network, Node
from .packet import PROTO_ICMP, PROTO_IPIP, PROTO_TCP, PROTO_UDP, Packet
from .routing import Route, RoutingTable, compute_static_routes
from .tcp import TCPConnection, TCPListener, TCPSegment, TCPStack, tcp_stack
from .udp import UDPSegment, UDPSocket, UDPStack

__all__ = [
    "AddressAllocator",
    "IPAddress",
    "Subnet",
    "NameRegistry",
    "ServiceEndpoint",
    "EchoReply",
    "install_echo_responder",
    "ping",
    "Link",
    "Interface",
    "Network",
    "Node",
    "PROTO_ICMP",
    "PROTO_IPIP",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "Route",
    "RoutingTable",
    "compute_static_routes",
    "TCPConnection",
    "TCPListener",
    "TCPSegment",
    "TCPStack",
    "UDPSegment",
    "UDPSocket",
    "UDPStack",
    "tcp_stack",
]
