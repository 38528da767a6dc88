"""Tests for crypto primitives, the WTLS channel, auth and payment."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Network, Subnet, TCPStack
from repro.security import (
    AuthenticationError,
    PaymentError,
    PaymentOrder,
    PaymentProcessor,
    SecureChannel,
    SecurityError,
    TokenIssuer,
    UserStore,
    dh_private_key,
    dh_public_key,
    dh_shared_secret,
    keystream_xor,
    mac,
    verify_mac,
)
from repro.sim import SeedBank, Simulator


# ----------------------------------------------------------------- crypto
def test_dh_agreement():
    bank = SeedBank(1)
    a_priv = dh_private_key(bank.stream("a"))
    b_priv = dh_private_key(bank.stream("b"))
    a_pub, b_pub = dh_public_key(a_priv), dh_public_key(b_priv)
    assert dh_shared_secret(b_pub, a_priv) == dh_shared_secret(a_pub, b_priv)


def test_dh_rejects_degenerate_keys():
    priv = dh_private_key(SeedBank(1).stream("a"))
    with pytest.raises(ValueError):
        dh_shared_secret(1, priv)
    with pytest.raises(ValueError):
        dh_shared_secret(0, priv)


def test_stream_cipher_round_trip_and_key_sensitivity():
    data = b"confidential order: 3 phones"
    key1, key2 = b"k" * 32, b"j" * 32
    ct = keystream_xor(key1, 7, data)
    assert ct != data
    assert keystream_xor(key1, 7, ct) == data
    assert keystream_xor(key2, 7, ct) != data
    assert keystream_xor(key1, 8, ct) != data  # nonce matters


@given(st.binary(max_size=300), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30)
def test_stream_cipher_involution_property(data, nonce):
    key = b"property-key".ljust(32, b"\x00")
    assert keystream_xor(key, nonce, keystream_xor(key, nonce, data)) == data


def test_mac_verifies_and_catches_tampering():
    key = b"m" * 32
    tag = mac(key, b"hello", b"world")
    assert verify_mac(key, tag, b"hello", b"world")
    assert not verify_mac(key, tag, b"hello", b"world!")
    assert not verify_mac(b"x" * 32, tag, b"hello", b"world")
    # Part boundaries matter (no concatenation ambiguity).
    assert not verify_mac(key, tag, b"hellow", b"orld")


# ------------------------------------------------------------------ wtls
def secure_pair(psk=None, client_psk="same"):
    sim = Simulator()
    net = Network(sim)
    a = net.add_node("client")
    b = net.add_node("server")
    net.connect(a, b, Subnet.parse("10.0.0.0/24"), delay=0.005)
    net.build_routes()
    tcp_a, tcp_b = TCPStack(a), TCPStack(b)
    listener = tcp_b.listen(4430)
    bank = SeedBank(42)
    world = {"sim": sim, "bank": bank}

    client_key = psk if client_psk == "same" else client_psk

    def server(env):
        conn = yield listener.accept()
        channel = SecureChannel(conn, bank.stream("server"), psk=psk)
        try:
            yield channel.handshake_server()
        except SecurityError as exc:
            world["server_error"] = exc
            return
        world["server_channel"] = channel
        while True:
            plaintext = yield channel.recv()
            if plaintext == b"":
                return
            world.setdefault("server_got", []).append(plaintext)
            channel.send(b"ACK:" + plaintext)

    def client(env):
        conn = tcp_a.connect(b.primary_address, 4430)
        yield conn.established_event
        channel = SecureChannel(conn, bank.stream("client"), psk=client_key)
        try:
            yield channel.handshake_client()
        except SecurityError as exc:
            world["client_error"] = exc
            return
        world["client_channel"] = channel
        channel.send(b"BUY 1 phone")
        reply = yield channel.recv()
        world["client_got"] = reply

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run(until=120)
    return world


def test_secure_round_trip():
    world = secure_pair()
    assert world["server_got"] == [b"BUY 1 phone"]
    assert world["client_got"] == b"ACK:BUY 1 phone"


def test_plaintext_never_on_wire():
    """Sniff every TCP segment: the order text must not appear."""
    sim = Simulator()
    net = Network(sim)
    a = net.add_node("client")
    b = net.add_node("server")
    net.connect(a, b, Subnet.parse("10.0.0.0/24"), delay=0.005)
    net.build_routes()
    sniffed = bytearray()

    def sniffer(packet, iface):
        seg = packet.payload
        data = getattr(seg, "data", b"")
        if data:
            sniffed.extend(data)
        return False

    b.rx_taps.append(sniffer)
    tcp_a, tcp_b = TCPStack(a), TCPStack(b)
    listener = tcp_b.listen(4430)
    bank = SeedBank(9)
    secret_text = b"PAY 499 to merchant ACME"

    def server(env):
        conn = yield listener.accept()
        channel = SecureChannel(conn, bank.stream("s"))
        yield channel.handshake_server()
        yield channel.recv()

    def client(env):
        conn = tcp_a.connect(b.primary_address, 4430)
        yield conn.established_event
        channel = SecureChannel(conn, bank.stream("c"))
        yield channel.handshake_client()
        channel.send(secret_text)

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run(until=60)
    assert secret_text not in bytes(sniffed)
    assert len(sniffed) > 0


def test_psk_authentication_accepts_and_rejects():
    good = secure_pair(psk=b"shared-secret")
    assert good["server_got"] == [b"BUY 1 phone"]

    bad = secure_pair(psk=b"shared-secret", client_psk=b"wrong-secret")
    assert isinstance(bad.get("server_error"), SecurityError)
    assert isinstance(bad.get("client_error"), SecurityError)


def test_tampered_record_detected():
    sim = Simulator()
    net = Network(sim)
    a = net.add_node("client")
    b = net.add_node("server")
    net.connect(a, b, Subnet.parse("10.0.0.0/24"), delay=0.005)
    net.build_routes()
    tcp_a, tcp_b = TCPStack(a), TCPStack(b)
    listener = tcp_b.listen(4430)
    bank = SeedBank(3)
    outcome = {}

    def server(env):
        conn = yield listener.accept()
        channel = SecureChannel(conn, bank.stream("s"))
        yield channel.handshake_server()
        try:
            yield channel.recv()
            outcome["verdict"] = "accepted"
        except SecurityError:
            outcome["verdict"] = "rejected"

    def client(env):
        conn = tcp_a.connect(b.primary_address, 4430)
        yield conn.established_event
        channel = SecureChannel(conn, bank.stream("c"))
        yield channel.handshake_client()
        # Tamper: flip bits in the ciphertext before sending.
        channel._send_seq = 0
        from repro.security.crypto import keystream_xor as kx, mac as m
        ciphertext = kx(channel._send_key, 0, b"PAY 1")
        corrupted = bytes([ciphertext[0] ^ 0xFF]) + ciphertext[1:]
        tag = m(channel._send_mac_key, (0).to_bytes(8, "big"), ciphertext)
        import struct
        record = struct.pack(">QI", 0, len(corrupted) + len(tag)) \
            + corrupted + tag
        conn.send(record)

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run(until=60)
    assert outcome["verdict"] == "rejected"


def test_replayed_record_detected():
    sim = Simulator()
    net = Network(sim)
    a = net.add_node("client")
    b = net.add_node("server")
    net.connect(a, b, Subnet.parse("10.0.0.0/24"), delay=0.005)
    net.build_routes()
    tcp_a, tcp_b = TCPStack(a), TCPStack(b)
    listener = tcp_b.listen(4430)
    bank = SeedBank(4)
    outcome = {}

    def server(env):
        conn = yield listener.accept()
        channel = SecureChannel(conn, bank.stream("s"))
        yield channel.handshake_server()
        first = yield channel.recv()
        outcome["first"] = first
        try:
            yield channel.recv()
            outcome["second"] = "accepted"
        except SecurityError:
            outcome["second"] = "rejected"

    def client(env):
        conn = tcp_a.connect(b.primary_address, 4430)
        yield conn.established_event
        channel = SecureChannel(conn, bank.stream("c"))
        yield channel.handshake_client()
        channel.send(b"PAY 10")
        # Replay the identical record by rewinding the sequence number.
        channel._send_seq = 0
        channel.send(b"PAY 10")

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run(until=60)
    assert outcome["first"] == b"PAY 10"
    assert outcome["second"] == "rejected"


def test_send_before_handshake_rejected():
    sim = Simulator()
    net = Network(sim)
    a = net.add_node("a")
    b = net.add_node("b")
    net.connect(a, b, Subnet.parse("10.0.0.0/24"))
    net.build_routes()
    conn = TCPStack(a).connect(b.primary_address, 1)
    channel = SecureChannel(conn, SeedBank(0).stream("x"))
    with pytest.raises(SecurityError):
        channel.send(b"data")
    with pytest.raises(SecurityError):
        channel.recv()


# ------------------------------------------------------------------- auth
def test_user_store_register_verify():
    store = UserStore(SeedBank(5).stream("auth"))
    store.register("ann", "hunter2", role="buyer")
    assert store.verify("ann", "hunter2") == {"role": "buyer"}
    with pytest.raises(AuthenticationError):
        store.verify("ann", "wrong")
    with pytest.raises(AuthenticationError):
        store.verify("bob", "hunter2")
    with pytest.raises(ValueError):
        store.register("ann", "again")


def test_token_issue_validate_expire():
    sim = Simulator()
    issuer = TokenIssuer(sim, secret=b"signing", ttl=100.0)
    token = issuer.issue("ann")
    assert issuer.validate(token) == "ann"
    with pytest.raises(AuthenticationError):
        issuer.validate(token[:-1] + ("0" if token[-1] != "0" else "1"))
    with pytest.raises(AuthenticationError):
        issuer.validate("garbage")

    def wait(env):
        yield env.timeout(200.0)

    sim.spawn(wait(sim))
    sim.run()
    with pytest.raises(AuthenticationError):
        issuer.validate(token)


# ---------------------------------------------------------------- payment
def payment_world():
    sim = Simulator()
    processor = PaymentProcessor(sim, SeedBank(7).stream("pay"))
    processor.open_account("ann", 10_000)
    key = processor.register_merchant("acme")
    return sim, processor, key


def signed_order(processor, key, amount=500, account="ann",
                 merchant="acme", nonce=None):
    return PaymentOrder(
        account=account,
        merchant=merchant,
        amount_cents=amount,
        nonce=nonce or processor.make_nonce(),
    ).signed(key)


def test_authorize_capture_flow():
    sim, processor, key = payment_world()
    auth = processor.authorize(signed_order(processor, key, amount=500))
    assert processor.balance("ann") == 10_000  # hold only
    new_balance = processor.capture(auth.auth_id)
    assert new_balance == 9_500


def test_void_releases_hold():
    sim, processor, key = payment_world()
    auth = processor.authorize(signed_order(processor, key, amount=9_000))
    processor.void(auth.auth_id)
    auth2 = processor.authorize(signed_order(processor, key, amount=9_000))
    assert auth2.state == "authorized"


def test_holds_count_against_balance():
    sim, processor, key = payment_world()
    processor.authorize(signed_order(processor, key, amount=9_000))
    with pytest.raises(PaymentError, match="insufficient"):
        processor.authorize(signed_order(processor, key, amount=2_000))


def test_replayed_order_declined():
    sim, processor, key = payment_world()
    order = signed_order(processor, key)
    processor.authorize(order)
    with pytest.raises(PaymentError, match="replayed"):
        processor.authorize(order)
    assert processor.stats.get("declined_replay") == 1


def test_tampered_amount_declined():
    sim, processor, key = payment_world()
    order = signed_order(processor, key, amount=500)
    inflated = PaymentOrder(
        account=order.account,
        merchant=order.merchant,
        amount_cents=5,  # attacker lowers the price
        nonce=order.nonce,
        signature=order.signature,
    )
    with pytest.raises(PaymentError, match="signature"):
        processor.authorize(inflated)


def test_unknown_merchant_and_account_declined():
    sim, processor, key = payment_world()
    with pytest.raises(PaymentError, match="merchant"):
        processor.authorize(PaymentOrder("ann", "evil", 100, "n1"))
    order = signed_order(processor, key, account="nobody")
    with pytest.raises(PaymentError, match="account"):
        processor.authorize(order)


def test_double_capture_rejected():
    sim, processor, key = payment_world()
    auth = processor.authorize(signed_order(processor, key))
    processor.capture(auth.auth_id)
    with pytest.raises(PaymentError, match="already"):
        processor.capture(auth.auth_id)
    with pytest.raises(PaymentError, match="already"):
        processor.void(auth.auth_id)


def _scanned_hold(processor, account):
    """The held total as a scan over every authorization computes it."""
    return sum(a.amount_cents for a in processor.authorizations.values()
               if a.account == account and a.state == "authorized")


_PAYMENT_OPS = st.one_of(
    st.tuples(st.just("authorize"), st.sampled_from(["ann", "bob"]),
              st.integers(min_value=1, max_value=6_000)),
    st.tuples(st.just("capture"), st.integers(min_value=1, max_value=30)),
    st.tuples(st.just("void"), st.integers(min_value=1, max_value=30)),
)


@given(st.lists(_PAYMENT_OPS, max_size=30))
@settings(max_examples=100, deadline=None)
def test_hold_ledger_matches_authorization_scan(ops):
    sim, processor, key = payment_world()
    processor.open_account("bob", 4_000)
    for op in ops:
        if op[0] == "authorize":
            _, account, amount = op
            room = processor.balance(account) - \
                _scanned_hold(processor, account)
            try:
                processor.authorize(signed_order(
                    processor, key, amount=amount, account=account))
                declined = False
            except PaymentError as exc:
                assert "insufficient" in str(exc)
                declined = True
            assert declined == (room < amount)
        else:
            action = getattr(processor, op[0])
            try:
                action(op[1])
            except PaymentError as exc:
                assert "already" in str(exc) or "no authorization" in str(exc)
        for account in ("ann", "bob"):
            assert processor._held.get(account, 0) == \
                _scanned_hold(processor, account)
