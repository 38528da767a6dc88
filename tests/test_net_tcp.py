"""Tests for the TCP implementation (handshake, stream, loss recovery)."""

import pytest

from repro.net import Network, Subnet, TCPConnection, TCPStack
from repro.sim import SeedBank, Simulator


def build_pair(sim, **link_kwargs):
    net = Network(sim)
    a = net.add_node("client")
    b = net.add_node("server")
    defaults = dict(bandwidth_bps=10_000_000, delay=0.005)
    defaults.update(link_kwargs)
    net.connect(a, b, Subnet.parse("10.0.0.0/24"), **defaults)
    net.build_routes()
    return net, a, b


def run_transfer(sim, net, client_node, server_node, payload: bytes,
                 mss: int = 1460):
    """Client connects and sends ``payload``; server echoes length."""
    tcp_c = TCPStack(client_node, mss=mss)
    tcp_s = TCPStack(server_node, mss=mss)
    listener = tcp_s.listen(80)
    received = bytearray()
    outcome = {}

    def server(env):
        conn = yield listener.accept()
        while len(received) < len(payload):
            chunk = yield conn.recv()
            if chunk == b"":
                break
            received.extend(chunk)
        outcome["server_done_at"] = env.now

    def client(env):
        conn = tcp_c.connect(server_node.primary_address, 80)
        yield conn.established_event
        outcome["established_at"] = env.now
        conn.send(payload)
        outcome["conn"] = conn

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    return received, outcome


def test_three_way_handshake():
    sim = Simulator()
    net, a, b = build_pair(sim)
    received, outcome = run_transfer(sim, net, a, b, b"x")
    sim.run(until=30)
    # SYN + SYN|ACK each take one RTT leg: established after >= 2 x 5 ms.
    assert outcome["established_at"] >= 0.010
    assert bytes(received) == b"x"


def test_small_transfer_integrity():
    sim = Simulator()
    net, a, b = build_pair(sim)
    payload = b"hello mobile commerce" * 10
    received, _ = run_transfer(sim, net, a, b, payload)
    sim.run(until=30)
    assert bytes(received) == payload


def test_large_transfer_segmentation():
    sim = Simulator()
    net, a, b = build_pair(sim)
    payload = bytes(range(256)) * 400  # 102,400 bytes, ~70 segments
    received, outcome = run_transfer(sim, net, a, b, payload)
    sim.run(until=60)
    assert bytes(received) == payload
    conn = outcome["conn"]
    assert conn.stats.get("segments_sent") >= len(payload) // 1460


def test_transfer_survives_loss():
    sim = Simulator()
    stream = SeedBank(3).stream("tcp-loss")
    net, a, b = build_pair(sim, loss_rate=0.05, loss_stream=stream)
    payload = b"Z" * 50_000
    received, outcome = run_transfer(sim, net, a, b, payload)
    sim.run(until=300)
    assert bytes(received) == payload
    conn = outcome["conn"]
    assert conn.stats.get("retransmitted_segments") > 0


def test_fast_retransmit_fires_on_single_drop():
    """One mid-stream drop with plenty of later segments => 3 dupacks."""
    sim = Simulator()
    net, a, b = build_pair(sim)
    tcp_c = TCPStack(a)
    tcp_s = TCPStack(b)
    listener = tcp_s.listen(80)
    payload = b"Q" * 60_000
    received = bytearray()

    def server(env):
        conn = yield listener.accept()
        while len(received) < len(payload):
            chunk = yield conn.recv()
            if chunk == b"":
                break
            received.extend(chunk)

    holder = {}

    def client(env):
        conn = tcp_c.connect(b.primary_address, 80)
        holder["conn"] = conn
        yield conn.established_event
        conn.send(payload)

    # Drop exactly one data segment mid-flight using a one-shot tap on the
    # server node.
    dropped = {"done": False}

    def drop_one(packet, iface):
        seg = packet.payload
        if (not dropped["done"] and packet.proto == "tcp"
                and getattr(seg, "data", b"") and seg.seq > 20_000):
            dropped["done"] = True
            return True  # consume == drop
        return False

    b.rx_taps.append(drop_one)
    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run(until=120)
    assert bytes(received) == payload
    conn = holder["conn"]
    assert conn.stats.get("fast_retransmits") >= 1
    assert conn.stats.get("timeouts") == 0


def test_rto_recovers_from_total_blackout():
    sim = Simulator()
    net, a, b = build_pair(sim)
    tcp_c = TCPStack(a)
    tcp_s = TCPStack(b)
    listener = tcp_s.listen(80)
    payload = b"R" * 20_000
    received = bytearray()
    holder = {}

    def server(env):
        conn = yield listener.accept()
        while len(received) < len(payload):
            chunk = yield conn.recv()
            if chunk == b"":
                break
            received.extend(chunk)

    def client(env):
        conn = tcp_c.connect(b.primary_address, 80)
        holder["conn"] = conn
        yield conn.established_event
        conn.send(payload)

    def blackout(env):
        yield env.timeout(0.02)
        net.links[0].take_down()
        yield env.timeout(2.0)
        net.links[0].bring_up()

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.spawn(blackout(sim))
    sim.run(until=300)
    assert bytes(received) == payload
    assert holder["conn"].stats.get("timeouts") >= 1


def test_connection_close_handshake():
    sim = Simulator()
    net, a, b = build_pair(sim)
    tcp_c = TCPStack(a)
    tcp_s = TCPStack(b)
    listener = tcp_s.listen(80)
    events = []

    def server(env):
        conn = yield listener.accept()
        chunk = yield conn.recv()
        events.append(("data", chunk))
        eof = yield conn.recv()
        events.append(("eof", eof))
        conn.close()

    def client(env):
        conn = tcp_c.connect(b.primary_address, 80)
        yield conn.established_event
        conn.send(b"bye")
        conn.close()
        yield conn.closed_event
        events.append(("client_closed", env.now))

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run(until=60)
    assert ("data", b"bye") in events
    assert ("eof", b"") in events
    assert any(e[0] == "client_closed" for e in events)


def test_fin_goes_out_only_after_the_queued_bytes_are_acked(monkeypatch):
    sim = Simulator()
    net, a, b = build_pair(sim, bandwidth_bps=100_000)
    payload = bytes(range(256)) * 40
    received, outcome = run_transfer(sim, net, a, b, payload)
    fins = []
    emit = TCPConnection._emit

    def watched_emit(conn, flags, *args, **kwargs):
        if "FIN" in flags:
            fins.append((sim.now, conn.snd_nxt - conn.snd_una,
                         len(conn._inflight) + len(conn._send_queue)))
        emit(conn, flags, *args, **kwargs)

    monkeypatch.setattr(TCPConnection, "_emit", watched_emit)

    def close_after_send(env):
        while "conn" not in outcome:
            yield env.timeout(0.001)
        outcome["conn"].close()
        outcome["closed_at"] = env.now

    sim.spawn(close_after_send(sim))
    sim.run(until=30)
    assert bytes(received) == payload
    [(fin_at, unacked, pending)] = fins
    assert unacked == 0 and pending == 0
    # The 10 KiB take 0.8 s at 100 kbit/s: the close waited them out.
    assert fin_at > outcome["closed_at"] + len(payload) * 8 / 100_000


def test_an_accept_after_the_handshake_still_reaches_the_backlog():
    """The backlog hand-off relays an already-processed established
    event with one scheduled call, as a process's yield would."""
    sim = Simulator()
    net, a, b = build_pair(sim)
    tcp_c, tcp_s = TCPStack(a), TCPStack(b)
    listener = tcp_s.listen(80)
    conn = tcp_c.connect(b.primary_address, 80)
    sim.run(until=1.0)
    assert conn.established_event.processed
    first = listener.accept()
    sim.run(until=2.0)
    late = listener.accept()
    listener._admit(conn)
    assert not late.triggered
    sim.run(until=3.0)
    assert first.value is not conn and late.value is conn


def test_connect_to_closed_port_refused():
    sim = Simulator()
    net, a, b = build_pair(sim)
    tcp_c = TCPStack(a)
    TCPStack(b)  # no listener
    conn = tcp_c.connect(b.primary_address, 9999)
    sim.run(until=5)
    assert not conn.established_event.triggered
    assert b.stats.get("tcp_conn_refused") >= 1


def test_bidirectional_streams():
    sim = Simulator()
    net, a, b = build_pair(sim)
    tcp_c = TCPStack(a)
    tcp_s = TCPStack(b)
    listener = tcp_s.listen(80)
    transcript = []

    def server(env):
        conn = yield listener.accept()
        request = yield conn.recv_exactly(7)
        transcript.append(("server_got", request))
        conn.send(b"RESPONSE-BODY")

    def client(env):
        conn = tcp_c.connect(b.primary_address, 80)
        yield conn.established_event
        conn.send(b"GET /pg")
        reply = yield conn.recv_exactly(13)
        transcript.append(("client_got", reply))

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run(until=60)
    assert ("server_got", b"GET /pg") in transcript
    assert ("client_got", b"RESPONSE-BODY") in transcript


def test_two_concurrent_connections_do_not_mix():
    sim = Simulator()
    net, a, b = build_pair(sim)
    tcp_c = TCPStack(a)
    tcp_s = TCPStack(b)
    listener = tcp_s.listen(80)
    results = {}

    def server(env):
        while True:
            conn = yield listener.accept()
            env.spawn(echo(env, conn))

    def echo(env, conn):
        data = yield conn.recv_exactly(4)
        conn.send(data * 2)

    def client(env, tag):
        conn = tcp_c.connect(b.primary_address, 80)
        yield conn.established_event
        conn.send(tag)
        reply = yield conn.recv_exactly(8)
        results[tag] = reply

    sim.spawn(server(sim))
    sim.spawn(client(sim, b"AAAA"))
    sim.spawn(client(sim, b"BBBB"))
    sim.run(until=60)
    assert results[b"AAAA"] == b"AAAAAAAA"
    assert results[b"BBBB"] == b"BBBBBBBB"


def test_cwnd_grows_during_slow_start():
    sim = Simulator()
    net, a, b = build_pair(sim)
    received, outcome = run_transfer(sim, net, a, b, b"S" * 100_000)
    sim.run(until=60)
    conn = outcome["conn"]
    assert conn.cwnd > 2 * conn.mss  # grew beyond initial window


def test_send_on_closed_connection_rejected():
    sim = Simulator()
    net, a, b = build_pair(sim)
    tcp_c = TCPStack(a)
    conn = tcp_c.connect(b.primary_address, 80)
    conn.state = "CLOSED"
    with pytest.raises(RuntimeError):
        conn.send(b"nope")


def test_mss_respected():
    sim = Simulator()
    net, a, b = build_pair(sim)
    tcp_c = TCPStack(a, mss=256)
    tcp_s = TCPStack(b, mss=256)
    listener = tcp_s.listen(80)
    sizes = []

    def watch(packet, iface):
        seg = packet.payload
        if packet.proto == "tcp" and getattr(seg, "data", b""):
            sizes.append(len(seg.data))
        return False

    b.rx_taps.append(watch)
    received = bytearray()

    def server(env):
        conn = yield listener.accept()
        while len(received) < 10_000:
            chunk = yield conn.recv()
            received.extend(chunk)

    def client(env):
        conn = tcp_c.connect(b.primary_address, 80, mss=256)
        yield conn.established_event
        conn.send(b"m" * 10_000)

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run(until=60)
    assert sizes and max(sizes) <= 256


def test_link_flap_mid_transfer_recovers_with_retransmissions():
    """Repeated short outages mid-transfer: the connection survives each
    flap via RTO + retransmission, the payload arrives intact, and the
    stats counters show the outage happened (timeouts fired, segments
    were retransmitted)."""
    sim = Simulator()
    net, a, b = build_pair(sim)
    tcp_c = TCPStack(a)
    tcp_s = TCPStack(b)
    listener = tcp_s.listen(80)
    payload = b"F" * 60_000
    received = bytearray()
    holder = {}

    def server(env):
        conn = yield listener.accept()
        while len(received) < len(payload):
            chunk = yield conn.recv()
            if chunk == b"":
                break
            received.extend(chunk)

    def client(env):
        conn = tcp_c.connect(b.primary_address, 80)
        holder["conn"] = conn
        yield conn.established_event
        conn.send(payload)

    def flapper(env):
        # Two flaps while segments are in flight.
        for start, length in ((0.03, 1.0), (2.5, 0.5)):
            yield env.timeout(max(0.0, start - env.now))
            net.links[0].take_down()
            yield env.timeout(length)
            net.links[0].bring_up()

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.spawn(flapper(sim))
    sim.run(until=240)

    assert bytes(received) == payload
    conn = holder["conn"]
    assert conn.stats.get("timeouts") >= 1, \
        "outage must force at least one RTO"
    assert conn.stats.get("retransmitted_segments") >= 1, \
        "recovery must resend lost segments"


def test_closed_connection_is_freed_without_cyclic_gc():
    """A connection that was opened, closed and dropped must be freed
    by reference counting alone: no reference cycle may hold it (with
    its buffers and events) until the cyclic collector runs."""
    import gc
    import weakref

    refs = []

    def exchange():
        sim = Simulator()
        net, a, b = build_pair(sim)
        tcp_c = TCPStack(a)
        tcp_s = TCPStack(b)
        listener = tcp_s.listen(80)

        def server(env):
            conn = yield listener.accept()
            yield conn.recv()
            yield conn.recv()
            conn.close()

        def client(env):
            conn = tcp_c.connect(b.primary_address, 80)
            refs.append(weakref.ref(conn))
            yield conn.established_event
            conn.send(b"bye")
            conn.close()
            yield conn.closed_event

        sim.spawn(server(sim))
        sim.spawn(client(sim))
        sim.run(until=120)
        # The client closed first, so it saw the server's FIN and its
        # stack has forgotten it.
        assert tcp_c._connections == {}

    gc.collect()
    gc.disable()
    try:
        exchange()
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def test_established_connection_pair_footprint():
    """Memory an idle, established client/server pair holds.  A gateway
    fleet keeps about a thousand connections open at once, so each one
    must stay small: its wait queues are plain lists and the connection
    is slotted."""
    import gc
    import tracemalloc

    sim = Simulator()
    net, a, b = build_pair(sim)
    tcp_c = TCPStack(a)
    tcp_s = TCPStack(b)
    tcp_s.listen(80)
    pairs = 200
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        conns = [tcp_c.connect(b.primary_address, 80) for _ in range(pairs)]
        sim.run(until=30)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(conn.state == "ESTABLISHED" for conn in conns)
    assert len(tcp_s._connections) == pairs
    assert held / pairs <= 5_000, f"{held / pairs:.0f} B per pair"
