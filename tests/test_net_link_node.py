"""Tests for links, nodes, routing and IP forwarding."""

import pytest

from repro.net import (
    IPAddress,
    Link,
    Network,
    Packet,
    Subnet,
    install_echo_responder,
    ping,
)
from repro.net.packet import PROTO_ICMP
from repro.sim import SeedBank, Simulator
from repro.wireless import CellularNetwork, Mobile, Position, cellular_standard


def two_host_net(sim, **link_kwargs):
    net = Network(sim)
    a = net.add_node("a")
    b = net.add_node("b")
    net.connect(a, b, Subnet.parse("10.0.0.0/24"), **link_kwargs)
    net.build_routes()
    return net, a, b


def test_direct_delivery():
    sim = Simulator()
    net, a, b = two_host_net(sim)
    got = []
    b.register_protocol("test", lambda n, p: got.append(p))
    pkt = Packet(src=a.primary_address, dst=b.primary_address,
                 proto="test", payload="hi", payload_size=10)
    a.send_ip(pkt)
    sim.run()
    assert len(got) == 1
    assert got[0].payload == "hi"


def test_serialization_plus_propagation_latency():
    sim = Simulator()
    # 1 Mbps, 10 ms propagation: 1000-byte packet -> 8 ms + 10 ms = 18 ms.
    net, a, b = two_host_net(sim, bandwidth_bps=1_000_000, delay=0.010)
    arrival = []
    b.register_protocol("test", lambda n, p: arrival.append(sim.now))
    a.send_ip(Packet(src=a.primary_address, dst=b.primary_address,
                     proto="test", payload_size=980))  # 980+20 hdr = 1000B
    sim.run()
    assert arrival[0] == pytest.approx(0.018, abs=1e-6)


def test_loopback_delivery():
    sim = Simulator()
    net, a, b = two_host_net(sim)
    got = []
    a.register_protocol("test", lambda n, p: got.append(p))
    a.send_ip(Packet(src=a.primary_address, dst=a.primary_address,
                     proto="test", payload="self"))
    sim.run()
    assert got and got[0].payload == "self"


def test_multi_hop_forwarding_through_router():
    sim = Simulator()
    net = Network(sim)
    a = net.add_node("a")
    r = net.add_node("r", forwarding=True)
    b = net.add_node("b")
    net.connect(a, r, Subnet.parse("10.0.1.0/24"))
    net.connect(r, b, Subnet.parse("10.0.2.0/24"))
    net.build_routes()
    got = []
    b.register_protocol("test", lambda n, p: got.append(p))
    a.send_ip(Packet(src=a.primary_address, dst=b.primary_address,
                     proto="test", payload="via router"))
    sim.run()
    assert got and got[0].hops == ["r", "b"]


def test_non_forwarding_node_drops_transit():
    sim = Simulator()
    net = Network(sim)
    a = net.add_node("a")
    h = net.add_node("h")  # host, not router
    b = net.add_node("b")
    net.connect(a, h, Subnet.parse("10.0.1.0/24"))
    net.connect(h, b, Subnet.parse("10.0.2.0/24"))
    net.build_routes()
    got = []
    b.register_protocol("test", lambda n, p: got.append(p))
    a.send_ip(Packet(src=a.primary_address, dst=b.primary_address, proto="test"))
    sim.run()
    assert not got
    assert h.stats.get("not_for_me_drops") == 1


def test_ttl_expiry_drops_packet():
    sim = Simulator()
    net = Network(sim)
    nodes = [net.add_node(f"n{i}", forwarding=True) for i in range(4)]
    for i in range(3):
        net.connect(nodes[i], nodes[i + 1],
                    Subnet.parse(f"10.0.{i}.0/24"))
    net.build_routes()
    got = []
    nodes[3].register_protocol("test", lambda n, p: got.append(p))
    pkt = Packet(src=nodes[0].primary_address, dst=nodes[3].primary_address,
                 proto="test", ttl=2)  # needs 2 forwarding hops => dies at n2
    nodes[0].send_ip(pkt)
    sim.run()
    assert not got
    assert sum(n.stats.get("ttl_drops") for n in nodes) == 1


def test_packet_born_dead_rejected():
    with pytest.raises(ValueError):
        Packet(src=IPAddress(1), dst=IPAddress(2), proto="t", ttl=0)


def test_packet_copy_draws_a_new_id_and_owns_its_hops():
    trace = object()
    pkt = Packet(src=IPAddress(1), dst=IPAddress(2), proto="test",
                 payload="body", payload_size=30, ttl=9, created_at=1.5,
                 trace=trace)
    pkt.hops.append("a")
    dup = pkt.copy()
    assert dup.packet_id != pkt.packet_id
    assert (dup.src, dup.dst, dup.proto, dup.payload, dup.payload_size,
            dup.size, dup.ttl, dup.created_at) == \
        (pkt.src, pkt.dst, pkt.proto, pkt.payload, 30, 50, 9, 1.5)
    assert dup.trace is trace
    assert dup.hops == ["a"] and dup.hops is not pkt.hops
    dup.hops.append("b")
    assert pkt.hops == ["a"]


def test_link_loss_drops_packets():
    sim = Simulator()
    stream = SeedBank(7).stream("loss")
    net, a, b = two_host_net(sim, loss_rate=1.0, loss_stream=stream)
    got = []
    b.register_protocol("test", lambda n, p: got.append(p))
    a.send_ip(Packet(src=a.primary_address, dst=b.primary_address, proto="test"))
    sim.run()
    assert not got
    assert net.links[0].stats.get("loss_drops") == 1


def test_loss_requires_stream():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, loss_rate=0.1)


def test_link_down_blackholes():
    sim = Simulator()
    net, a, b = two_host_net(sim)
    got = []
    b.register_protocol("test", lambda n, p: got.append(p))
    net.links[0].take_down()
    a.send_ip(Packet(src=a.primary_address, dst=b.primary_address, proto="test"))
    sim.run()
    assert not got
    net.links[0].bring_up()
    a.send_ip(Packet(src=a.primary_address, dst=b.primary_address, proto="test"))
    sim.run()
    assert len(got) == 1


def test_losses_on_arrival_are_counted():
    """A frame that leaves the wire but meets a link gone down during
    propagation, or a detached interface, is a drop, not a delivery."""
    sim = Simulator()
    # 100-byte packets: 0.8 ms serialization, then 10 ms propagation.
    net, a, b = two_host_net(sim, bandwidth_bps=1_000_000, delay=0.010)
    link = net.links[0]
    got = []
    b.register_protocol("test", lambda n, p: got.append(p))

    def send():
        a.send_ip(Packet(src=a.primary_address, dst=b.primary_address,
                         proto="test", payload_size=80))

    send()
    sim.run(until=0.005)
    link.take_down()
    sim.run(until=0.02)
    link.bring_up()
    assert link.stats.as_dict() == {"down_drops": 1}
    b.interfaces[0].detach()
    send()
    sim.run()
    assert got == []
    assert link.stats.as_dict() == {"down_drops": 1}
    assert b.stats.as_dict() == {"iface_down_drops": 1}


def test_queue_tail_drop():
    sim = Simulator()
    net, a, b = two_host_net(sim, bandwidth_bps=1000.0, queue_capacity=2)
    for _ in range(10):
        a.send_ip(Packet(src=a.primary_address, dst=b.primary_address,
                         proto="test", payload_size=100))
    sim.run()
    assert net.links[0].stats.get("queue_drops") > 0


def test_link_end_enqueue_respects_capacity():
    sim = Simulator()
    link = Link(sim, queue_capacity=2)
    end = link.ends[0]
    packet = Packet(src=IPAddress.parse("10.0.0.1"),
                    dst=IPAddress.parse("10.0.0.2"), proto="test")
    assert end.enqueue(packet)
    assert end.enqueue(packet)
    assert not end.enqueue(packet)
    assert link.stats.get("queue_drops") == 1


def test_no_route_counted():
    sim = Simulator()
    net, a, b = two_host_net(sim)
    a.send_ip(Packet(src=a.primary_address,
                     dst=IPAddress.parse("172.16.0.1"), proto="test"))
    sim.run()
    assert a.stats.get("no_route_drops") == 1


def test_tunnel_encapsulation_round_trip():
    sim = Simulator()
    net = Network(sim)
    a = net.add_node("a")
    r = net.add_node("r", forwarding=True)
    b = net.add_node("b")
    net.connect(a, r, Subnet.parse("10.0.1.0/24"))
    net.connect(r, b, Subnet.parse("10.0.2.0/24"))
    net.build_routes()
    got = []
    b.register_protocol("test", lambda n, p: got.append(p))
    inner = Packet(src=a.primary_address, dst=b.primary_address,
                   proto="test", payload="tunneled")
    outer = inner.encapsulate(a.primary_address, b.primary_address)
    a.send_ip(outer)
    sim.run()
    assert got and got[0].payload == "tunneled"
    assert b.stats.get("decapsulated") == 1


def test_decapsulate_non_tunnel_rejected():
    pkt = Packet(src=IPAddress(1), dst=IPAddress(2), proto="test")
    with pytest.raises(ValueError):
        pkt.decapsulate()


def test_ping_round_trip():
    sim = Simulator()
    net = Network(sim)
    a = net.add_node("a")
    r = net.add_node("r", forwarding=True)
    b = net.add_node("b")
    net.connect(a, r, Subnet.parse("10.0.1.0/24"), delay=0.005)
    net.connect(r, b, Subnet.parse("10.0.2.0/24"), delay=0.005)
    net.build_routes()
    install_echo_responder(b)
    result = ping(sim, a, b.primary_address)
    sim.run()
    reply = result.value
    assert reply is not None
    assert reply.rtt >= 0.020  # 4 x 5 ms propagation
    assert "r" in reply.hops


def test_ping_timeout_returns_none():
    sim = Simulator()
    net, a, b = two_host_net(sim)
    # No echo responder installed on b.
    result = ping(sim, a, b.primary_address, timeout=1.0)
    sim.run()
    assert result.value is None


def test_duplicate_node_name_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_node("x")
    with pytest.raises(ValueError):
        net.add_node("x")


def test_find_node_by_address():
    sim = Simulator()
    net, a, b = two_host_net(sim)
    assert net.find_node_by_address(b.primary_address) is b
    assert net.find_node_by_address(IPAddress.parse("1.2.3.4")) is None


# ------------------------------------------------------------ hop pin
def _hop_scenario():
    """Wired chain with a tail-drop burst, a lossy GPRS cell with shared
    airtime, and a link taken down in mid-frame."""
    sim = Simulator()
    net = Network(sim)
    a = net.add_node("a")
    r = net.add_node("r", forwarding=True)
    b = net.add_node("b")
    net.connect(a, r, Subnet.parse("10.0.1.0/24"),
                bandwidth_bps=80_000.0, delay=0.002, queue_capacity=2)
    net.connect(r, b, Subnet.parse("10.0.2.0/24"),
                bandwidth_bps=40_000.0, delay=0.003)
    cellnet = CellularNetwork(net, r, cellular_standard("GPRS"),
                              loss_rate=0.35,
                              loss_stream=SeedBank(5).stream("air"))
    cellnet.add_base_station("bs0", Position(0, 0))
    phones = []
    for index in range(2):
        phone = net.add_node(f"phone{index}")
        phone.assign_address(IPAddress.parse(f"10.200.0.{10 + index}"))
        cellnet.attach(phone, Mobile(Position(100.0 * index, 0)))
        phones.append(phone)
    net.build_routes()

    arrivals = []
    for node in [b] + phones:
        node.register_protocol(
            "pin", lambda n, p: arrivals.append(
                (n.name, p.payload, list(p.hops), round(sim.now, 9))))

    def send(src, dst, label, size):
        src.send_ip(Packet(src=src.primary_address, dst=dst.primary_address,
                           proto="pin", payload=label, payload_size=size))

    # A burst past queue_capacity=2 on a -> r: tail drops at t=0.
    for index in range(5):
        send(a, b, f"burst{index}", 180)

    def traffic(env):
        yield env.timeout(0.5)
        for index in range(6):
            send(b, phones[index % 2], f"down{index}", 300)
            send(phones[index % 2], b, f"up{index}", 120)
            yield env.timeout(0.01)
        yield env.timeout(2.0)
        # Take a -> r down while its second frame is on the wire.
        send(a, b, "doomed0", 480)
        send(a, b, "doomed1", 480)
        yield env.timeout(0.07)
        net.links[0].take_down()
        yield env.timeout(0.05)
        net.links[0].bring_up()
        send(a, b, "after", 100)

    sim.spawn(traffic(sim))
    sim.run()
    links = [link.stats.as_dict() for link in net.links]
    links += [att.link.stats.as_dict() for att in cellnet.attachments]
    nodes = {node.name: node.stats.as_dict() for node in net.nodes}
    return sim.events_processed, links, nodes, arrivals


def test_hop_events_stats_and_arrivals_are_pinned():
    """Every hop outcome (tail drop, airtime wait, frame error, retry
    loss, down drop, delivery) at the event count and the arrival times
    the generator-driven transmitter and receiver gave."""
    events, links, nodes, arrivals = _hop_scenario()
    assert events == 214
    assert links == [
        {"bytes_delivered": 1020, "delivered": 4, "down_drops": 1,
         "queue_drops": 3},
        {"bytes_delivered": 3500, "delivered": 14},
        {"bytes_delivered": 2480, "delivered": 10},
        {"bytes_delivered": 1240, "delivered": 5, "frame_errors": 5,
         "loss_drops": 1},
        {"bytes_delivered": 1240, "delivered": 5, "frame_errors": 5,
         "loss_drops": 1},
    ]
    assert nodes == {
        "a": {"forwarded": 5, "tx_drops": 3},
        "r": {"forwarded": 14},
        "b": {"delivered_local": 8, "forwarded": 6},
        "bs0": {"forwarded": 10},
        "phone0": {"delivered_local": 3, "forwarded": 3},
        "phone1": {"delivered_local": 3, "forwarded": 3},
    }
    assert arrivals == [
        ("b", "burst0", ["r", "b"], 0.065),
        ("b", "burst1", ["r", "b"], 0.105),
        ("b", "up0", ["bs0", "r", "b"], 0.5942112),
        ("b", "up2", ["bs0", "r", "b"], 0.6390112),
        ("phone0", "down0", ["r", "bs0", "phone0"], 0.6652),
        ("b", "up3", ["bs0", "r", "b"], 0.7206112),
        ("phone1", "down1", ["r", "bs0", "phone1"], 0.7244),
        ("phone0", "down2", ["r", "bs0", "phone0"], 0.7726256),
        ("b", "up5", ["bs0", "r", "b"], 0.7798112),
        ("phone1", "down3", ["r", "bs0", "phone1"], 0.8366256),
        ("phone0", "down4", ["r", "bs0", "phone0"], 0.9262256),
        ("phone1", "down5", ["r", "bs0", "phone1"], 0.9646256),
        ("b", "doomed0", ["r", "b"], 2.715),
        ("b", "after", ["r", "b"], 2.739),
    ]
