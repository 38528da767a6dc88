"""Property test: the routing table against a plain list oracle.

The oracle is the list implementation the table used to have: routes
kept sorted by descending prefix length (stable, so insertion order
within a length), an added prefix replacing any route for the same
prefix and moving to the end of its length, lookups scanning for the
first match.
"""

from hypothesis import given, settings, strategies as st

from repro.net import IPAddress, Subnet
from repro.net.routing import Route, RoutingTable


class _ListTable:
    def __init__(self):
        self._routes = []

    def add(self, route):
        self._routes = [r for r in self._routes if r.subnet != route.subnet]
        self._routes.append(route)
        self._routes.sort(key=lambda r: -r.subnet.prefix_len)

    def remove(self, subnet):
        before = len(self._routes)
        self._routes = [r for r in self._routes if r.subnet != subnet]
        return len(self._routes) != before

    def lookup(self, destination):
        for route in self._routes:
            subnet = route.subnet
            if (destination.value & subnet.mask) == subnet.network.value:
                return route
        return None

    def routes(self):
        return list(self._routes)


_SUBNETS = [Subnet.parse(text) for text in (
    "0.0.0.0/0", "10.0.0.0/8", "11.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16",
    "10.1.2.0/24", "10.1.3.0/24", "10.2.2.0/24", "10.1.2.3/32",
    "10.1.2.4/32", "10.2.2.9/32", "10.1.2.0/25",
)]
_PROBES = [IPAddress.parse(text) for text in (
    "10.1.2.3", "10.1.2.4", "10.1.2.200", "10.1.3.7", "10.2.2.9",
    "10.2.9.9", "10.9.9.9", "11.1.1.1", "12.0.0.1", "0.0.0.0",
)]

_OPS = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_SUBNETS),
              st.sampled_from(["eth0", "eth1", "ppp0"]),
              st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("remove"), st.sampled_from(_SUBNETS)),
    st.tuples(st.just("lookup"), st.sampled_from(_PROBES)),
    st.tuples(st.just("clear"),),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, max_size=40))
def test_routing_table_matches_list_oracle(ops):
    table, oracle = RoutingTable(), _ListTable()
    for op in ops:
        if op[0] == "add":
            _, subnet, iface, metric = op
            route = Route(subnet=subnet, iface_name=iface, metric=metric)
            table.add(route)
            oracle.add(route)
        elif op[0] == "remove":
            assert table.remove(op[1]) == oracle.remove(op[1])
        elif op[0] == "lookup":
            assert table.lookup(op[1]) is oracle.lookup(op[1])
        else:
            table.clear()
            oracle._routes.clear()
        got, want = table.routes(), oracle.routes()
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))
        for probe in _PROBES:
            assert table.lookup(probe) is oracle.lookup(probe)
