"""Ablation (paper §5.2) — Mobile IP.

"The Mobile IP defines enhancements that permit IP nodes ... to
seamlessly 'roam' among IP subnetworks ... It supports transparency
above the IP layer, including the maintenance of active TCP
connections and UDP port bindings."

The benchmark quantifies both claims: a correspondent pings a mobile
that roams across three subnets, with and without Mobile IP
(delivery rate); and a TCP download runs across a mid-stream move
(connection survival + completion time).
"""

from repro.net import (
    IPAddress,
    Network,
    Subnet,
    TCPStack,
    install_echo_responder,
    ping,
)
from repro.net.mobile import ForeignAgent, HomeAgent, MobileIPClient, \
    RoamingManager
from repro.sim import Simulator


PAYLOAD = 80_000


def build_world():
    sim = Simulator()
    net = Network(sim)
    core = net.add_node("core", forwarding=True)
    routers = {}
    for index, name in enumerate(["home", "visit1", "visit2"]):
        router = net.add_node(f"{name}-router", forwarding=True)
        net.connect(core, router, Subnet.parse(f"10.{index + 1}.0.0/24"),
                    delay=0.002)
        routers[name] = router
    correspondent = net.add_node("correspondent")
    net.connect(core, correspondent, Subnet.parse("10.9.0.0/24"),
                delay=0.002)

    mobile = net.add_node("mobile")
    home_address = IPAddress.parse("10.1.0.100")
    roaming = RoamingManager(net, mobile, home_address)
    roaming.attach(routers["home"])
    net.build_routes()
    return sim, net, routers, correspondent, mobile, home_address, roaming


def ping_while_roaming(use_mobile_ip: bool) -> dict:
    """Continuous pings across two moves; returns delivery stats."""
    (sim, net, routers, correspondent, mobile,
     home_address, roaming) = build_world()
    install_echo_responder(mobile)
    if use_mobile_ip:
        HomeAgent(routers["home"])
        agents = {name: ForeignAgent(routers[name])
                  for name in ("visit1", "visit2")}
        client = MobileIPClient(mobile, home_address,
                                routers["home"].primary_address)
    outcomes = []

    def pinger(env):
        for _ in range(30):
            reply = yield ping(sim, correspondent, home_address,
                               timeout=1.0)
            outcomes.append(reply is not None)
            yield env.timeout(0.5)

    def roam(env):
        for name in ("visit1", "visit2"):
            yield env.timeout(5.0)
            roaming.attach(routers[name])
            if use_mobile_ip:
                yield client.register_via(agents[name].care_of_address)

    sim.spawn(pinger(sim))
    sim.spawn(roam(sim))
    sim.run(until=120)
    return {"sent": len(outcomes), "delivered": sum(outcomes)}


def tcp_across_move(use_mobile_ip: bool) -> dict:
    (sim, net, routers, correspondent, mobile,
     home_address, roaming) = build_world()
    if use_mobile_ip:
        HomeAgent(routers["home"])
        fa = ForeignAgent(routers["visit1"])
        client = MobileIPClient(mobile, home_address,
                                routers["home"].primary_address)
    tcp_c = TCPStack(correspondent)
    tcp_m = TCPStack(mobile, mss=512)
    listener = tcp_m.listen(80)
    received = bytearray()
    out = {}

    def mobile_side(env):
        conn = yield listener.accept()
        while len(received) < PAYLOAD:
            chunk = yield conn.recv()
            if chunk == b"":
                break
            received.extend(chunk)
        out["done_at"] = env.now

    def fixed_side(env):
        conn = tcp_c.connect(home_address, 80, mss=512)
        yield conn.established_event
        conn.send(b"M" * PAYLOAD)

    def roam(env):
        yield env.timeout(0.2)
        roaming.attach(routers["visit1"])
        if use_mobile_ip:
            yield client.register_via(fa.care_of_address)

    sim.spawn(mobile_side(sim))
    sim.spawn(fixed_side(sim))
    sim.spawn(roam(sim))
    sim.run(until=300)
    return {"received": len(received), "done_at": out.get("done_at")}


def run_all():
    return {
        "ping_with": ping_while_roaming(True),
        "ping_without": ping_while_roaming(False),
        "tcp_with": tcp_across_move(True),
        "tcp_without": tcp_across_move(False),
    }


def test_ablation_mobileip(golden):
    results = run_all()

    pw, po = results["ping_with"], results["ping_without"]
    tw, to = results["tcp_with"], results["tcp_without"]
    golden.table(
        "S5.2 ablation - Mobile IP vs no mobility support "
        "(mobile roams home -> visited1 -> visited2)",
        ["Scenario", "Without Mobile IP", "With Mobile IP"],
        [
            ["Echo delivery while roaming",
             f"{po['delivered']}/{po['sent']}",
             f"{pw['delivered']}/{pw['sent']}"],
            [f"TCP download ({PAYLOAD} B) across a move",
             (f"{to['received']} B, stalled"
              if to["done_at"] is None else f"done {to['done_at']:.2f}s"),
             f"done {tw['done_at']:.2f}s" if tw["done_at"] else "stalled"],
        ],
    )

    # Transparency claim: with Mobile IP, near-total delivery and the
    # TCP connection survives; without it, the mobile goes dark.
    assert pw["delivered"] >= 0.9 * pw["sent"]
    assert po["delivered"] < 0.5 * po["sent"]
    assert tw["done_at"] is not None
    assert tw["received"] == PAYLOAD
    assert to["done_at"] is None  # never completes without Mobile IP

    golden.check()
