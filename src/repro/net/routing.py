"""Routing: longest-prefix-match tables and static shortest-path fill.

Each node carries a :class:`RoutingTable`.  The :func:`compute_static_routes`
helper runs Dijkstra over a :class:`repro.net.node.Network` topology and
installs host routes, which is all a laptop-scale simulation needs; the
point of this module is that forwarding decisions are *data*, so Mobile
IP can override them (host routes for care-of addresses) exactly the way
real stacks do.
"""

from __future__ import annotations

# Dijkstra's frontier, not an event queue.
import heapq
from typing import TYPE_CHECKING, Optional

from .addressing import IPAddress, Subnet

if TYPE_CHECKING:  # pragma: no cover
    from .node import Interface, Network, Node

__all__ = ["Route", "RoutingTable", "compute_static_routes"]


class Route:
    """One routing entry.

    ``next_hop`` of None means the destination is directly attached on
    ``iface`` (deliver without further routing).
    """

    def __init__(self, subnet: Subnet, iface_name: str,
                 next_hop: Optional[IPAddress] = None, metric: int = 1):
        self.subnet = subnet
        self.iface_name = iface_name
        self.next_hop = next_hop
        self.metric = metric

    def __repr__(self) -> str:  # pragma: no cover
        via = f" via {self.next_hop}" if self.next_hop else " direct"
        return f"<Route {self.subnet} dev {self.iface_name}{via}>"


class RoutingTable:
    """Longest-prefix match over routes bucketed by prefix length.

    ``_buckets`` maps prefix length -> network value -> Route, longest
    prefix first, so a lookup is one dict probe per distinct length.
    Lookups are also memoised per destination; any table mutation drops
    the memo, so Mobile IP's mid-run host-route updates are seen
    instantly.
    """

    def __init__(self):
        self._buckets: dict[int, dict[int, Route]] = {}
        # (mask, bucket) per prefix length, longest first.
        self._probes: list[tuple[int, dict[int, Route]]] = []
        # destination address value -> winning Route (or None for no
        # route).  Purely a lookup memo: cleared on every mutation.
        self._lookup_cache: dict[int, Optional[Route]] = {}

    def add(self, route: Route) -> None:
        """Install ``route``, replacing any route for the same prefix
        (the replacement goes last among routes of its length)."""
        subnet = route.subnet
        bucket = self._buckets.get(subnet.prefix_len)
        if bucket is None:
            bucket = self._buckets[subnet.prefix_len] = {}
            self._reprobe()
        bucket.pop(subnet.network.value, None)
        bucket[subnet.network.value] = route
        self._lookup_cache.clear()

    def remove(self, subnet: Subnet) -> bool:
        bucket = self._buckets.get(subnet.prefix_len)
        if bucket is None or subnet.network.value not in bucket:
            return False
        del bucket[subnet.network.value]
        if not bucket:
            del self._buckets[subnet.prefix_len]
            self._reprobe()
        self._lookup_cache.clear()
        return True

    def _reprobe(self) -> None:
        self._probes = [
            ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF,
             self._buckets[length])
            for length in sorted(self._buckets, reverse=True)
        ]

    def lookup(self, destination: IPAddress) -> Optional[Route]:
        """Most specific matching route, or None."""
        value = destination.value
        try:
            return self._lookup_cache[value]
        except KeyError:
            pass
        found = None
        for mask, bucket in self._probes:
            found = bucket.get(value & mask)
            if found is not None:
                break
        self._lookup_cache[value] = found
        return found

    def routes(self) -> list[Route]:
        """Every route, longest prefix first, in insertion order within
        a length."""
        return [route for _, bucket in self._probes
                for route in bucket.values()]

    def clear(self) -> None:
        self._buckets.clear()
        self._probes.clear()
        self._lookup_cache.clear()


def compute_static_routes(network: "Network") -> None:
    """Populate every node's routing table with shortest-path routes.

    Runs Dijkstra from each node over the link topology (metric = 1 per
    link, ties broken by insertion order) and installs:

    * a *direct* route for every attached subnet, and
    * a /32 host route toward every remote interface address.
    """
    for node in network.nodes:
        node.routing_table.clear()
        # Direct subnets first.
        for iface in node.interfaces:
            if iface.subnet is not None:
                node.routing_table.add(
                    Route(subnet=iface.subnet, iface_name=iface.name)
                )

    for source in network.nodes:
        dist, first_hop = _dijkstra(network, source)
        for target in network.nodes:
            if target is source or target not in first_hop:
                continue
            out_iface, gateway = first_hop[target]
            for announced in target.announced_subnets:
                existing = source.routing_table.lookup(announced.network)
                if existing is not None and \
                        existing.subnet.prefix_len >= announced.prefix_len:
                    continue
                source.routing_table.add(
                    Route(
                        subnet=announced,
                        iface_name=out_iface.name,
                        next_hop=gateway,
                        metric=dist[target],
                    )
                )
            for iface in target.interfaces:
                if iface.address is None:
                    continue
                host_net = Subnet(iface.address, 32)
                existing = source.routing_table.lookup(iface.address)
                if existing is not None and existing.subnet.prefix_len == 32:
                    continue
                source.routing_table.add(
                    Route(
                        subnet=host_net,
                        iface_name=out_iface.name,
                        next_hop=gateway,
                        metric=dist[target],
                    )
                )


def _dijkstra(network: "Network", source: "Node"):
    """Shortest paths; returns (distance, first_hop) maps.

    ``first_hop[node]`` is ``(source_iface, gateway_address)`` for the
    first link on the path from ``source`` to ``node``.
    """
    dist: dict = {source: 0}
    first_hop: dict = {}
    counter = 0
    heap: list[tuple[int, int, "Node", Optional[tuple]]] = [(0, counter, source, None)]
    visited: set = set()
    while heap:
        d, _, node, hop = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if hop is not None:
            first_hop[node] = hop
        for iface in node.interfaces:
            if iface.link is None or not iface.is_up or iface.link.is_down:
                continue
            peer = iface.peer()
            if peer is None or peer.node is None or not peer.is_up:
                continue
            neighbour = peer.node
            nd = d + 1
            if neighbour not in dist or nd < dist[neighbour]:
                dist[neighbour] = nd
                if node is source:
                    next_hop_info = (iface, peer.address)
                else:
                    next_hop_info = hop
                counter += 1
                heapq.heappush(heap, (nd, counter, neighbour, next_hop_info))
    return dist, first_hop
