"""Sim and live make the same loss decisions.

Both backends share one link model
(:class:`~repro.simnet.network.NetworkBase`): a packet crosses the same
hops, takes the same per-hop delay, and each hop draws from the *sender's*
private loss stream.  So the same requests, sent through
:class:`~repro.simnet.network.Network` and through an impaired
:class:`~repro.livenet.network.LiveNetwork`, must lose the same packets
and delay the rest alike — and a sender's losses must not depend on how
the other senders' traffic interleaves with its own, on either backend.
"""

from __future__ import annotations

import random
from functools import partial

from repro.kernel.events import SendableEvent
from repro.kernel.message import Message
from repro.kernel.packet import DATA, Packet
from repro.livenet.frame import decode_frame
from repro.simnet.engine import SimEngine
from repro.simnet.loss import BernoulliLoss
from repro.simnet.network import LinkParams, Network
from repro.simnet.node import NodeKind
from tests.livenet.helpers import offline_live_network

PORT = "p"
SENDERS = ("m0", "m1")
KINDS = {"m0": NodeKind.MOBILE, "m1": NodeKind.MOBILE,
         "f0": NodeKind.FIXED}
SENDS_EACH = 40


def wireless() -> LinkParams:
    return LinkParams(latency_s=0.002, bandwidth_bps=11e6,
                      loss=BernoulliLoss(0.3, random.Random(11),
                                         seed_base="parity"))


def request(sender: str, k: int) -> Packet:
    """Send ``k`` of ``sender``: a unicast to the fixed receiver, sized by
    ``k`` so the delays differ from send to send."""
    return Packet(src=sender, dst="f0", port=PORT, event_cls=SendableEvent,
                  message=Message(payload=f"{sender}:{k}:" + "x" * (7 * k))
                  .wire_copy(), traffic_class=DATA)


def key(packet: Packet) -> tuple[str, int]:
    sender, k, _ = packet.message.payload.split(":")
    return sender, int(k)


def alternating() -> list[tuple[str, int]]:
    return [(sender, k) for k in range(SENDS_EACH) for sender in SENDERS]


def one_after_the_other() -> list[tuple[str, int]]:
    return [(sender, k) for sender in reversed(SENDERS)
            for k in range(SENDS_EACH)]


def sim_arrivals(order) -> dict[tuple[str, int], float]:
    """``{(sender, k): delay}`` of every packet the simulator delivers."""
    engine = SimEngine()
    network = Network(engine, wireless=wireless())
    for node_id, kind in KINDS.items():
        network.add_node(node_id, kind)
    arrived = {}
    network.node("f0").bind_port(PORT, lambda packet: arrived.__setitem__(
        key(packet), engine.now() - packet.sent_at))
    for sender, k in order:
        network.transmit(network.node(sender), request(sender, k))
    engine.run_until(10.0)
    return arrived


def live_arrivals(order, monkeypatch) -> dict[tuple[str, int], float]:
    """``{(sender, k): delay}`` of every frame the live network sends."""
    network, source, sent = offline_live_network(KINDS, wireless=wireless())
    clock = network.engine
    delays: list[float] = []
    schedule = clock.call_later

    def call_later(delay, callback):
        def fire():
            delays.append(delay)
            callback()
        return schedule(delay, fire)

    monkeypatch.setattr(clock, "call_later", call_later)
    for sender, k in order:
        network.transmit(network.node(sender), request(sender, k))
    source.advance(10.0)
    clock.poll()
    assert len(delays) == len(sent)  # one datagram per fired send
    # The socket is the address: a datagram is decoded for the node whose
    # address it was sent to.
    node_at = {network.address_of(node_id): node_id for node_id in KINDS}
    return {key(decode_frame(data, node_at[address])): delay
            for delay, (_, address, data) in zip(delays, sent)}


def of(sender: str, arrivals: dict) -> set[int]:
    return {k for (src, k) in arrivals if src == sender}


class TestLossParity:
    def test_sim_and_live_lose_and_delay_the_same_packets(self,
                                                          monkeypatch):
        sim = sim_arrivals(alternating())
        live = live_arrivals(alternating(), monkeypatch)
        # The link drops a fair share, so equal sets are not vacuous.
        assert SENDS_EACH < len(sim) < 2 * SENDS_EACH
        assert live == sim

    def test_a_senders_losses_ignore_the_others_interleaving(self,
                                                             monkeypatch):
        for arrivals in (sim_arrivals,
                         partial(live_arrivals, monkeypatch=monkeypatch)):
            mixed = arrivals(alternating())
            apart = arrivals(one_after_the_other())
            for sender in SENDERS:
                assert of(sender, mixed) == of(sender, apart), sender
                assert of(sender, mixed) != set(range(SENDS_EACH))
