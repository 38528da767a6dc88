"""Ablation (paper §8) — mobile security and payment.

"Security issues (including payment) include data reliability,
integrity, confidentiality, and authentication."  The benchmark
measures what the WTLS-style layer costs and what it buys: the same
payment exchange runs over plaintext TCP and over a SecureChannel
(handshake + per-record overhead measured), then active attacks are
replayed against both — eavesdropping, tampering, replay — and the
detection outcomes tabulated.
"""

from repro.net import Network, Subnet, TCPStack
from repro.security import (
    PaymentError,
    PaymentOrder,
    PaymentProcessor,
    SecureChannel,
    SecurityError,
)
from repro.sim import SeedBank, Simulator


EXCHANGES = 10
ORDER_TEXT = b"PAY account=ann merchant=acme amount=4999 nonce=%d"


def build_pair():
    sim = Simulator()
    net = Network(sim)
    client = net.add_node("mobile")
    server = net.add_node("payment-host")
    net.connect(client, server, Subnet.parse("10.0.0.0/24"),
                bandwidth_bps=2_000_000, delay=0.020)
    net.build_routes()
    return sim, net, client, server


def plaintext_exchange() -> dict:
    sim, net, client_node, server_node = build_pair()
    tcp_c, tcp_s = TCPStack(client_node), TCPStack(server_node)
    listener = tcp_s.listen(4000)
    sniffed = bytearray()

    def sniffer(packet, iface):
        data = getattr(packet.payload, "data", b"")
        if data:
            sniffed.extend(data)
        return False

    server_node.rx_taps.append(sniffer)
    out = {}

    def server(env):
        conn = yield listener.accept()
        for _ in range(EXCHANGES):
            msg = yield conn.recv()
            if msg == b"":
                return
            conn.send(b"OK")

    def client(env):
        conn = tcp_c.connect(server_node.primary_address, 4000)
        yield conn.established_event
        start = env.now
        for i in range(EXCHANGES):
            conn.send(ORDER_TEXT % i)
            _ = yield conn.recv()
        out["elapsed"] = env.now - start

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run(until=120)
    out["plaintext_visible"] = b"merchant=acme" in bytes(sniffed)
    return out


def secure_exchange() -> dict:
    sim, net, client_node, server_node = build_pair()
    tcp_c, tcp_s = TCPStack(client_node), TCPStack(server_node)
    listener = tcp_s.listen(4000)
    bank = SeedBank(33)
    sniffed = bytearray()

    def sniffer(packet, iface):
        data = getattr(packet.payload, "data", b"")
        if data:
            sniffed.extend(data)
        return False

    server_node.rx_taps.append(sniffer)
    out = {}

    def server(env):
        conn = yield listener.accept()
        channel = SecureChannel(conn, bank.stream("s"),
                                psk=b"subscriber-key")
        yield channel.handshake_server()
        for _ in range(EXCHANGES):
            msg = yield channel.recv()
            if msg == b"":
                return
            channel.send(b"OK")

    def client(env):
        conn = tcp_c.connect(server_node.primary_address, 4000)
        yield conn.established_event
        start = env.now
        channel = SecureChannel(conn, bank.stream("c"),
                                psk=b"subscriber-key")
        yield channel.handshake_client()
        out["handshake"] = env.now - start
        for i in range(EXCHANGES):
            channel.send(ORDER_TEXT % i)
            _ = yield channel.recv()
        out["elapsed"] = env.now - start

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run(until=120)
    out["plaintext_visible"] = b"merchant=acme" in bytes(sniffed)
    return out


def attack_outcomes() -> dict:
    """Application-layer attacks against the payment processor."""
    sim = Simulator()
    processor = PaymentProcessor(sim, SeedBank(5).stream("pay"))
    processor.open_account("ann", 100_000)
    key = processor.register_merchant("acme")
    order = PaymentOrder("ann", "acme", 4_999,
                         processor.make_nonce()).signed(key)
    outcomes = {}
    processor.authorize(order)  # legitimate
    try:
        processor.authorize(order)  # replay
        outcomes["replay"] = "ACCEPTED (bad)"
    except PaymentError as exc:
        outcomes["replay"] = f"rejected ({type(exc).__name__})"
    tampered = PaymentOrder("ann", "acme", 1, order.nonce + "x",
                            signature=order.signature)
    try:
        processor.authorize(tampered)
        outcomes["tamper"] = "ACCEPTED (bad)"
    except PaymentError as exc:
        outcomes["tamper"] = f"rejected ({type(exc).__name__})"
    return outcomes


def run_all():
    return {
        "plain": plaintext_exchange(),
        "secure": secure_exchange(),
        "attacks": attack_outcomes(),
    }


def test_ablation_security(golden):
    results = run_all()
    plain, secure = results["plain"], results["secure"]
    overhead = (secure["elapsed"] - plain["elapsed"]) / plain["elapsed"]

    golden.table(
        f"S8 ablation - {EXCHANGES} payment exchanges, plaintext vs "
        "WTLS-style channel",
        ["Metric", "Plaintext TCP", "SecureChannel"],
        [
            ["Total time",
             f"{plain['elapsed']:.3f}s", f"{secure['elapsed']:.3f}s"],
            ["Handshake cost", "none", f"{secure['handshake']:.3f}s"],
            ["Relative overhead", "-", f"+{overhead * 100:.0f}%"],
            ["Order text visible to sniffer",
             str(plain["plaintext_visible"]),
             str(secure["plaintext_visible"])],
        ],
    )
    attacks = results["attacks"]
    golden.emit("Active attacks against the payment processor:")
    golden.emit(f"  replayed order:  {attacks['replay']}")
    golden.emit(f"  tampered amount: {attacks['tamper']}")
    golden.emit("")

    # Confidentiality: the sniffer reads plaintext only without the layer.
    assert plain["plaintext_visible"] is True
    assert secure["plaintext_visible"] is False
    # The layer costs something (handshake RTT) but is bounded.
    assert secure["elapsed"] > plain["elapsed"]
    assert overhead < 1.0  # less than 2x for a 10-exchange session
    # Integrity and replay protection hold.
    assert attacks["replay"].startswith("rejected")
    assert attacks["tamper"].startswith("rejected")

    golden.check()
