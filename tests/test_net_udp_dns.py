"""Tests for UDP sockets and the name registry."""

import pytest

from repro.net import (
    NameRegistry,
    Network,
    Subnet,
    UDPStack,
)
from repro.sim import Simulator


def make_pair(sim):
    net = Network(sim)
    a = net.add_node("a")
    b = net.add_node("b")
    net.connect(a, b, Subnet.parse("10.0.0.0/24"), delay=0.002)
    net.build_routes()
    return net, a, b


def test_udp_send_receive():
    sim = Simulator()
    net, a, b = make_pair(sim)
    udp_a, udp_b = UDPStack(a), UDPStack(b)
    server = udp_b.bind(9000)
    client = udp_a.bind()
    got = []

    def srv(env):
        data, src, port = yield server.recv()
        got.append((data, str(src), port))

    sim.spawn(srv(sim))
    client.sendto("ping", b.primary_address, 9000, data_size=16)
    sim.run()
    assert got == [("ping", str(a.primary_address), client.port)]


def test_udp_reply_path():
    sim = Simulator()
    net, a, b = make_pair(sim)
    udp_a, udp_b = UDPStack(a), UDPStack(b)
    server = udp_b.bind(9000)
    client = udp_a.bind()
    got = []

    def srv(env):
        data, src, port = yield server.recv()
        server.sendto(data.upper(), src, port, data_size=16)

    def cli(env):
        client.sendto("hello", b.primary_address, 9000, data_size=16)
        data, _, _ = yield client.recv()
        got.append(data)

    sim.spawn(srv(sim))
    sim.spawn(cli(sim))
    sim.run()
    assert got == ["HELLO"]


def test_udp_unbound_port_drops():
    sim = Simulator()
    net, a, b = make_pair(sim)
    udp_a = UDPStack(a)
    UDPStack(b)
    client = udp_a.bind()
    client.sendto("x", b.primary_address, 12345, data_size=8)
    sim.run()
    assert b.stats.get("udp_port_unreachable") == 1


def test_udp_double_bind_rejected():
    sim = Simulator()
    net, a, _ = make_pair(sim)
    udp = UDPStack(a)
    udp.bind(5000)
    with pytest.raises(RuntimeError):
        udp.bind(5000)


def test_udp_recv_timeout():
    sim = Simulator()
    net, a, _ = make_pair(sim)
    udp = UDPStack(a)
    sock = udp.bind(7000)
    result = sock.recv_with_timeout(0.5)
    sim.run()
    assert result.value is None


def test_udp_closed_socket_rejects():
    sim = Simulator()
    net, a, b = make_pair(sim)
    udp = UDPStack(a)
    sock = udp.bind()
    sock.close()
    with pytest.raises(RuntimeError):
        sock.sendto("x", b.primary_address, 1)
    with pytest.raises(RuntimeError):
        sock.recv()


def test_name_registry_case_insensitive():
    reg = NameRegistry()
    from repro.net import IPAddress
    reg.register("Shop.Example.COM", IPAddress.parse("10.0.0.5"))
    assert reg.lookup("shop.example.com") == IPAddress.parse("10.0.0.5")
    assert reg.lookup("other.example.com") is None
    reg.unregister("SHOP.example.com")
    assert len(reg) == 0


def test_registry_rejects_empty_name():
    from repro.net import IPAddress
    with pytest.raises(ValueError):
        NameRegistry().register("", IPAddress(1))
