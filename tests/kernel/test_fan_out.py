"""One group send, one transmission request: ``EachOf`` below the kernel queue.

Contracts under test:

* **the network's expansion is the sequence of unicasts** — one
  ``EachOf(members)`` transmit leaves the simulator in the state the
  reference expansion ``for m in members: transmit(copy_for(m))`` (written
  out *here*, the semantics before fan-out moved into the network) leaves
  it in: every counter, loss draw, battery level and delivery, in order;
* **a group send crosses the transport once** — a real beb and a real
  Mecho group send run ``DatagramTransportSession.handle`` and
  ``Message.wire_copy`` once (twice via the relay) for 4 members and for
  16, and receivers cannot tell: ``dest`` is their own id;
* **``dest`` is opaque below the fan-out layer** — ``frag`` under ``beb``
  fragments the one event and every member reassembles it;
* **live frames are unchanged** — the datagrams of one ``EachOf`` request
  are byte for byte ``encode_frame(packet.copy_for(m))``, with the shared
  body encoded once.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import EachOf, Message, SendableEvent
from repro.kernel.packet import CONTROL, DATA, Packet
from repro.kernel.transport import DatagramTransportSession
from repro.livenet import frame as live_frame
from repro.livenet.frame import decode_frame, encode_frame
from repro.simnet import BernoulliLoss, LinkParams, Network, SimEngine
from repro.simnet.energy import Battery
from repro.simnet.node import NodeKind
from tests.kernel.test_wire_cells import mecho_world
from tests.livenet.helpers import offline_live_network
from tests.protocols.helpers import build_world, collector_of
from tests.protocols.test_frag import frag_of, frag_world
from tests.simnet.unbatched import unbatched

PORT = "p"


def request(sender: str, members, size: int = 100,
            traffic_class: str = DATA) -> Packet:
    """The one packet a transport session builds for a fan-out send."""
    return Packet(src=sender, dst=EachOf(tuple(members)), port=PORT,
                  event_cls=SendableEvent,
                  message=Message(payload="x" * size).wire_copy(),
                  traffic_class=traffic_class)


def transmit(network, sender: str, packet: Packet, expanded: bool) -> None:
    """``packet`` as one request, or as the unicast sequence it stands for."""
    node = network.node(sender)
    if expanded:
        for member in packet.dst.members:
            network.transmit(node, packet.copy_for(member))
    else:
        network.transmit(node, packet)


# -- the network's expansion is the sequence of unicasts -----------------------

@dataclass(frozen=True)
class World:
    kinds: dict
    wired_loss: float
    wireless_loss: float
    per_sender_streams: bool
    seed: int
    partition: object
    crashed: frozenset
    per_packet: bool
    requests: tuple


@st.composite
def worlds(draw) -> World:
    kinds = draw(st.lists(st.sampled_from(list(NodeKind)),
                          min_size=2, max_size=7))
    ids = [f"n{index}" for index in range(len(kinds))]
    a_node = st.sampled_from(ids)
    sends = st.tuples(
        a_node,
        st.lists(st.sampled_from(ids + ["ghost"]), unique=True, max_size=8),
        st.integers(0, 600), st.sampled_from([DATA, CONTROL]))
    return World(
        kinds=dict(zip(ids, kinds)),
        wired_loss=draw(st.sampled_from([0.0, 0.25])),
        wireless_loss=draw(st.sampled_from([0.0, 0.35])),
        per_sender_streams=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 16)),
        # One side of the split; a node drawn into neither side is isolated.
        partition=draw(st.none() | st.tuples(st.frozensets(a_node),
                                             st.frozensets(a_node))),
        crashed=draw(st.frozensets(a_node, max_size=2)),
        per_packet=draw(st.booleans()),
        requests=tuple(draw(st.lists(sends, min_size=1, max_size=4))))


def loss(probability: float, world: World, label: str):
    if not probability:
        return None
    base = f"{label}:{world.seed}" if world.per_sender_streams else None
    return BernoulliLoss(probability, random.Random(f"{label}{world.seed}"),
                         seed_base=base)


def link(latency_s: float, bandwidth_bps: float, model) -> LinkParams:
    params = LinkParams(latency_s=latency_s, bandwidth_bps=bandwidth_bps)
    if model is not None:
        params.loss = model
    return params


def run_world(world: World, expanded: bool) -> dict:
    """Everything observable after the world's requests went out."""
    engine = SimEngine()
    with unbatched() if world.per_packet else nullcontext():
        network = Network(
            engine,
            wired=link(0.0005, 100e6,
                       loss(world.wired_loss, world, "wired")),
            wireless=link(0.002, 11e6,
                          loss(world.wireless_loss, world, "wireless")))
    received = []
    for node_id, kind in world.kinds.items():
        node = network.add_node(node_id, kind)
        node.bind_port(PORT, lambda packet, node_id=node_id: received.append(
            (engine.now(), node_id, packet.src, packet.dst, packet.hops,
             packet.sent_at, packet.size_bytes, packet.message.payload)))
    if world.partition is not None:
        left, right = world.partition
        network.partition(left, right - left)
    for node_id in world.crashed:
        network.crash_node(node_id)
    for sender, members, size, traffic_class in world.requests:
        transmit(network, sender,
                 request(sender, members, size, traffic_class), expanded)
    in_flight = sorted(
        (when, seq, dst.node_id, packet.dst, packet.hops)
        for when, seq, dst, packet in network._batcher.pending)
    lost_at_send = network.lost_packets
    engine.run_until(5.0)
    return {
        "in_flight": in_flight, "lost_at_send": lost_at_send,
        "received": received, "lost": network.lost_packets,
        "delivered": network.delivered_packets,
        "fired": engine.fired_count,
        "stats": {node_id: network.stats_of(node_id)
                  for node_id in world.kinds},
        "batteries": {node_id: network.node(node_id).battery
                      for node_id in world.kinds}}


class TestExpansionIsTheUnicastSequence:
    @given(world=worlds())
    @settings(max_examples=300, deadline=None)
    def test_one_request_equals_the_reference_expansion(self, world):
        assert run_world(world, expanded=False) == \
            run_world(world, expanded=True)

    @pytest.mark.parametrize("survives", [0, 1, 3, 5])
    def test_battery_dying_mid_request_drops_the_rest(self, survives):
        members = [f"fixed-{index}" for index in range(5)]
        packet = request("mobile", members)
        cost = Battery().params.tx_per_packet_mj + \
            Battery().params.tx_per_byte_mj * packet.size_bytes
        outcomes = []
        for expanded in (False, True):
            engine = SimEngine()
            network = Network(engine)
            # Charge for ``survives`` transmissions less a sliver: the
            # last one that starts is the one that empties the battery.
            sender = network.add_mobile_node(
                "mobile", battery=Battery(
                    capacity_mj=max(survives - 0.5, 0.0) * cost))
            heard = []
            for member in members:
                network.add_fixed_node(member).bind_port(
                    PORT, lambda packet: heard.append(packet.dst))
            transmit(network, "mobile", request("mobile", members), expanded)
            engine.run_until(1.0)
            assert sender.stats.sent_total == survives
            assert sender.stats.dropped_packets == len(members) - survives
            assert heard == members[:survives]
            assert not sender.alive
            outcomes.append((sender.stats, sender.battery, heard,
                             network.lost_packets))
        assert outcomes[0] == outcomes[1]

    def test_each_of_is_n_transmissions_and_a_tuple_is_one(self):
        """Figure-3 accounting: ``sent_total`` counts what left the NIC."""
        engine = SimEngine()
        network = Network(engine, native_multicast_wired=True)
        for node_id in ("a", "b", "c", "d"):
            network.add_fixed_node(node_id).bind_port(PORT, lambda _: None)
        network.transmit(network.node("a"), request("a", ("b", "c", "d")))
        assert network.stats_of("a").sent_total == 3
        native = request("a", ())
        native.dst = ("a", "b", "c", "d")
        network.transmit(network.node("a"), native)
        assert network.stats_of("a").sent_total == 4
        engine.run_until(1.0)
        assert network.delivered_packets == 6

    def test_repr_stays_compact(self):
        assert repr(EachOf(("a", "b"))) == "EachOf(a,b)"
        wide = EachOf(tuple(f"n{index}" for index in range(31)))
        assert repr(wide) == "EachOf(n0,n1,n2,+28)"
        assert wide == EachOf(wide.members) and wide != wide.members


# -- a group send crosses the transport once -----------------------------------

def beb_world(members: int):
    """Two wired nodes and ``members - 2`` mobiles on plain beb, background
    traffic parked far beyond the observed window."""
    specs = {"fixed-0": "fixed", "fixed-1": "fixed"}
    for index in range(members - 2):
        specs[f"mobile-{index:02d}"] = "mobile"
    return build_world(specs, heartbeat_interval=600.0, nack_interval=600.0)


def transport_work_for_one_send(world, members: int, sender: str,
                                monkeypatch) -> tuple[int, int]:
    """``(transport handle calls, wire_copy calls)`` one group send from
    ``sender`` costs the whole group, through the real stacks."""
    engine, network, channels = world(members)
    engine.run_until(1.0)
    network.reset_stats()
    calls = {"handle": 0, "wire_copy": 0}

    def counting(name, original):
        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)
        return counted

    with monkeypatch.context() as patch:
        patch.setattr(DatagramTransportSession, "handle", counting(
            "handle", DatagramTransportSession.handle))
        patch.setattr(Message, "wire_copy",
                      counting("wire_copy", Message.wire_copy))
        collector_of(channels[sender]).send_text("hello")
        engine.run_until(2.0)
    for node_id, channel in channels.items():
        (event,) = collector_of(channel).delivered
        assert event.message.payload == "hello"
        assert event.dest == node_id
        assert event.source == sender
    assert sum(network.stats_of(node_id).sent_total
               for node_id in channels) == members - 1
    return calls["handle"], calls["wire_copy"]


class TestGroupSendCrossesTheTransportOnce:
    @pytest.mark.parametrize("members", [4, 16])
    def test_beb(self, members, monkeypatch):
        assert transport_work_for_one_send(
            beb_world, members, "fixed-1", monkeypatch) == (1, 1)

    @pytest.mark.parametrize("members", [4, 16])
    @pytest.mark.parametrize("sender, crossings",
                             [("fixed-1", 1), ("mobile-00", 2)])
    def test_mecho(self, members, sender, crossings, monkeypatch):
        # A mobile's send is one unicast to the relay plus the relay's
        # one fan-out request.
        assert transport_work_for_one_send(
            mecho_world, members, sender, monkeypatch) == \
            (crossings, crossings)


# -- dest is opaque below the fan-out layer ------------------------------------

class TestFragUnderBeb:
    def test_group_send_is_fragmented_once_and_reassembled_everywhere(self):
        members = ("a", "b", "c", "d")
        engine, network, probes = frag_world(mtu=128, members=members)
        network.reset_stats()
        big = "y" * 1000
        probes["a"].send(big)
        engine.run_until(1.0)
        for node_id in members:
            assert probes[node_id].payloads() == [big], node_id
        # One event reached frag, so one fragmentation ...
        assert frag_of(network, "a").fragmented_count == 1
        for node_id in members[1:]:
            assert frag_of(network, node_id).reassembled_count == 1
            assert probes[node_id].deliveries[0].source == "a"
        # ... whose every fragment went to each of the three others.
        fragments = network.stats_of("a").sent_by_event["FragmentEvent"]
        assert fragments % 3 == 0 and 12 <= fragments // 3 <= 20
        assert network.stats_of("a").sent_total == fragments


# -- live frames are unchanged --------------------------------------------------

def live_world(impaired: bool):
    """Two wired and four mobile nodes behind a lossy wireless hop, the
    last mobile cut off by a partition."""
    kinds = {"fixed-0": NodeKind.FIXED, "fixed-1": NodeKind.FIXED,
             "mobile-0": NodeKind.MOBILE, "mobile-1": NodeKind.MOBILE,
             "mobile-2": NodeKind.MOBILE, "mobile-3": NodeKind.MOBILE}
    wireless = LinkParams(latency_s=0.002, bandwidth_bps=11e6,
                          loss=BernoulliLoss(0.3, random.Random(5)))
    network, source, sent = offline_live_network(
        kinds, wireless=wireless, impaired=impaired)
    network.partition(set(kinds) - {"mobile-3"}, {"mobile-3"})
    return network, source, sent


class TestLiveFrames:
    @pytest.mark.parametrize("impaired", [False, True])
    def test_datagrams_equal_the_per_member_frames(self, impaired,
                                                   monkeypatch):
        members = ("fixed-1", "mobile-0", "ghost", "mobile-1", "mobile-2",
                   "mobile-3")
        runs = []
        for expanded in (False, True):
            network, source, sent = live_world(impaired)
            bodies = []
            original = live_frame.encode_payload

            def counted(value):
                if isinstance(value, Message):
                    bodies.append(value)
                return original(value)

            packet = request("fixed-0", members, size=300)
            with monkeypatch.context() as patch:
                patch.setattr(live_frame, "encode_payload", counted)
                transmit(network, "fixed-0", packet, expanded)
            source.advance(1.0)
            network.engine.poll()
            reached = [address for _, address, _ in sent]
            for _, address, data in sent:
                member = next(m for m in members if m != "ghost" and
                              network.address_of(m) == address)
                assert data == encode_frame(packet.copy_for(member))
                arrived = decode_frame(data)
                assert arrived.dst == member and arrived.src == "fixed-0"
                assert arrived.message == packet.message
                assert arrived.size_bytes == packet.size_bytes
            runs.append((sent, network.lost_packets,
                         network.stats_of("fixed-0")))
            # The body is framed once per request, not once per datagram.
            framed = len(members) - 2  # all but the ghost and the cut-off
            assert len(bodies) == (framed if expanded else 1)
            assert network.lost_packets >= 2
            assert reached and network.lost_packets + len(sent) == \
                len(members)
        assert runs[0] == runs[1]
