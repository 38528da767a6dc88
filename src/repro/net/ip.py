"""IP-layer utilities: echo (ping) and path tracing.

These sit on top of :mod:`repro.net.node` and exist mostly for tests,
examples and the Mobile IP benchmarks, which need an application-free
way to observe reachability and routing paths.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..sim import Event, Simulator
from .addressing import IPAddress
from .node import Node
from .packet import PROTO_ICMP, Packet

__all__ = ["EchoReply", "install_echo_responder", "ping"]

_echo_ids = itertools.count(1)
ECHO_PAYLOAD_BYTES = 64


class _EchoPayload:
    def __init__(self, echo_id: int, kind: str, origin: IPAddress):
        self.echo_id = echo_id
        self.kind = kind  # "request" | "reply"
        self.origin = origin


class EchoReply:
    """Result of a successful ping."""

    def __init__(self, rtt: float, hops: list[str], echo_id: int):
        self.rtt = rtt
        self.hops = hops
        self.echo_id = echo_id


def install_echo_responder(node: Node) -> None:
    """Make ``node`` answer ICMP echo requests."""

    def handler(n: Node, packet: Packet) -> None:
        payload = packet.payload
        if not isinstance(payload, _EchoPayload) or payload.kind != "request":
            return
        reply = Packet(
            src=packet.dst,
            dst=payload.origin,
            proto=PROTO_ICMP,
            payload=_EchoPayload(payload.echo_id, "reply", payload.origin),
            payload_size=packet.payload_size,
        )
        reply.hops = list(packet.hops)
        n.send_ip(reply)

    node.register_protocol(PROTO_ICMP, handler)


def ping(
    sim: Simulator,
    source: Node,
    destination: IPAddress,
    timeout: float = 5.0,
) -> Event:
    """Send one echo request; the returned event yields EchoReply or None.

    The destination node must have :func:`install_echo_responder`
    applied (test/benchmark setup does this for every host).
    """
    echo_id = next(_echo_ids)
    result = sim.event()
    pending: dict[int, Event] = {echo_id: result}

    previous = source._handlers.get(PROTO_ICMP)

    def reply_handler(n: Node, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, _EchoPayload) and payload.kind == "reply":
            waiter = pending.pop(payload.echo_id, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(
                    EchoReply(
                        rtt=sim.now - start_time,
                        hops=list(packet.hops),
                        echo_id=payload.echo_id,
                    )
                )
            return
        if previous is not None:
            previous(n, packet)

    source.register_protocol(PROTO_ICMP, reply_handler)

    start_time = sim.now
    request = Packet(
        src=source.primary_address,
        dst=destination,
        proto=PROTO_ICMP,
        payload=_EchoPayload(echo_id, "request", source.primary_address),
        payload_size=ECHO_PAYLOAD_BYTES,
    )
    source.send_ip(request)

    def watchdog(env):
        yield env.timeout(timeout)
        waiter = pending.pop(echo_id, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(None)

    sim.spawn(watchdog(sim), name="ping-timeout")
    return result
