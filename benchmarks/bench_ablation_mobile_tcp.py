"""Ablation (paper §5.2) — TCP for mobile networks.

The paper surveys three fixes for TCP's poor behaviour over wireless
links: split connection (Yavatkar & Bhagawat [16]), snoop packet
caching (Balakrishnan et al. [1]) and fast retransmission after handoff
(Caceres & Iftode [2]).  This benchmark runs the same fixed-host ->
mobile transfer under (a) wireless loss and (b) a handoff blackout,
for plain Reno and each enhancement, and reports completion time and
sender-visible loss events — the cited papers' qualitative result
(each enhancement beats plain TCP in its target regime) must hold.
"""

from repro.net import Network, Subnet, TCPStack
from repro.net.mobile import HandoffNotifier, SnoopAgent, SplitRelay
from repro.sim import SeedBank, Simulator


PAYLOAD = 60_000
LOSS_RATE = 0.08
SEED = 21


def build(sim, loss=0.0, seed=SEED):
    net = Network(sim)
    fixed = net.add_node("fixed")
    base = net.add_node("base", forwarding=True)
    mobile = net.add_node("mobile")
    net.connect(fixed, base, Subnet.parse("10.0.1.0/24"),
                bandwidth_bps=10_000_000, delay=0.010)
    stream = SeedBank(seed).stream("w") if loss else None
    net.connect(mobile, base, Subnet.parse("10.0.2.0/24"),
                bandwidth_bps=2_000_000, delay=0.004,
                loss_rate=loss, loss_stream=stream)
    net.build_routes()
    return net, fixed, base, mobile


def direct_transfer(sim, fixed, mobile, mss=512):
    """Fixed host sends PAYLOAD straight to the mobile."""
    tcp_f = TCPStack(fixed, mss=mss)
    tcp_m = TCPStack(mobile, mss=mss)
    listener = tcp_m.listen(80)
    received = bytearray()
    out = {"received": received}

    def mobile_side(env):
        conn = yield listener.accept()
        out["mobile_conn"] = conn
        while len(received) < PAYLOAD:
            chunk = yield conn.recv()
            if chunk == b"":
                break
            received.extend(chunk)
        out["done_at"] = env.now

    def fixed_side(env):
        conn = tcp_f.connect(mobile.primary_address, 80, mss=mss)
        out["fixed_conn"] = conn
        yield conn.established_event
        conn.send(b"P" * PAYLOAD)

    sim.spawn(mobile_side(sim))
    sim.spawn(fixed_side(sim))
    return out


def split_transfer(sim, fixed, base, mobile):
    """Mobile pulls PAYLOAD via an I-TCP relay on the base station."""
    tcp_f = TCPStack(fixed)
    listener = tcp_f.listen(80)
    SplitRelay(base, 8080, fixed.primary_address, 80)
    received = bytearray()
    out = {"received": received}

    def origin(env):
        conn = yield listener.accept()
        out["fixed_conn"] = conn
        _ = yield conn.recv_exactly(1)
        conn.send(b"P" * PAYLOAD)

    def client(env):
        tcp_m = TCPStack(mobile, mss=512)
        conn = tcp_m.connect(base.primary_address, 8080, mss=512)
        yield conn.established_event
        conn.send(b"G")
        while len(received) < PAYLOAD:
            chunk = yield conn.recv()
            if chunk == b"":
                break
            received.extend(chunk)
        out["done_at"] = env.now

    sim.spawn(origin(sim))
    sim.spawn(client(sim))
    return out


def sender_loss_events(conn) -> int:
    return conn.stats.get("fast_retransmits") + conn.stats.get("timeouts")


def run_loss_regime() -> list[list]:
    rows = []
    # Plain Reno.
    sim = Simulator()
    net, fixed, base, mobile = build(sim, loss=LOSS_RATE)
    out = direct_transfer(sim, fixed, mobile)
    sim.run(until=900)
    assert len(out["received"]) == PAYLOAD
    rows.append(["plain TCP (Reno)", f"{out['done_at']:.2f}",
                 sender_loss_events(out["fixed_conn"]),
                 out["fixed_conn"].stats.get("retransmitted_segments")])

    # Snoop.
    sim = Simulator()
    net, fixed, base, mobile = build(sim, loss=LOSS_RATE)
    snoop = SnoopAgent(base, {mobile.primary_address})
    out = direct_transfer(sim, fixed, mobile)
    sim.run(until=900)
    assert len(out["received"]) == PAYLOAD
    rows.append(["snoop [1]", f"{out['done_at']:.2f}",
                 sender_loss_events(out["fixed_conn"]),
                 out["fixed_conn"].stats.get("retransmitted_segments")])

    # Split connection.
    sim = Simulator()
    net, fixed, base, mobile = build(sim, loss=LOSS_RATE)
    out = split_transfer(sim, fixed, base, mobile)
    sim.run(until=900)
    assert len(out["received"]) == PAYLOAD
    rows.append(["split connection (I-TCP) [16]", f"{out['done_at']:.2f}",
                 sender_loss_events(out["fixed_conn"]),
                 out["fixed_conn"].stats.get("retransmitted_segments")])
    return rows


def run_handoff_regime() -> list[list]:
    def run(signal: bool):
        sim = Simulator()
        net, fixed, base, mobile = build(sim, loss=0.0)
        out = direct_transfer(sim, fixed, mobile)
        wireless = net.links[1]
        notifier = HandoffNotifier()

        def handoff(env):
            yield env.timeout(0.25)
            wireless.take_down()
            yield env.timeout(1.5)
            wireless.bring_up()
            if signal and "mobile_conn" in out:
                notifier.track(out["mobile_conn"])
                notifier.handoff_complete()

        sim.spawn(handoff(sim))
        sim.run(until=900)
        assert len(out["received"]) == PAYLOAD
        return out

    plain = run(signal=False)
    fast = run(signal=True)
    return [
        ["plain TCP through handoff", f"{plain['done_at']:.2f}",
         sender_loss_events(plain["fixed_conn"]),
         plain["fixed_conn"].stats.get("retransmitted_segments")],
        ["fast retransmit after handoff [2]", f"{fast['done_at']:.2f}",
         sender_loss_events(fast["fixed_conn"]),
         fast["fixed_conn"].stats.get("retransmitted_segments")],
    ]


def test_ablation_mobile_tcp(golden):
    loss_rows = run_loss_regime()
    handoff_rows = run_handoff_regime()

    golden.table(
        f"S5.2 ablation A - {PAYLOAD} B to the mobile over "
        f"{LOSS_RATE * 100:.0f}% wireless loss",
        ["Variant", "Completion (s)", "Sender loss events",
         "Sender retransmissions"],
        loss_rows,
    )
    golden.table(
        "S5.2 ablation B - same transfer through a 1.5 s handoff blackout",
        ["Variant", "Completion (s)", "Sender loss events",
         "Sender retransmissions"],
        handoff_rows,
    )

    # Shape: each enhancement beats plain TCP in its regime.
    plain_time = float(loss_rows[0][1])
    snoop_time = float(loss_rows[1][1])
    split_time = float(loss_rows[2][1])
    assert snoop_time < plain_time
    assert split_time < plain_time * 1.5  # split adds relay latency but
    #                                       shields the wired sender:
    assert loss_rows[2][2] == 0  # zero wired-sender loss events (split)
    assert loss_rows[1][3] < loss_rows[0][3]  # fewer retransmissions (snoop)

    plain_handoff = float(handoff_rows[0][1])
    fast_handoff = float(handoff_rows[1][1])
    assert fast_handoff < plain_handoff  # signalling resumes before RTO

    golden.check()
