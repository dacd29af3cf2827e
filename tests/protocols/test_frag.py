"""Fragmentation/reassembly of oversized messages."""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.ministacks import build_ministack
from repro.kernel import Direction, Message
from repro.kernel.codec import encode_payload
from repro.kernel.packet import Packet
from repro.livenet.frame import encode_frame
from repro.protocols import (BestEffortMulticastLayer, FragmentationLayer,
                             ReliableMulticastLayer)
from repro.protocols.events import ApplicationMessage
from repro.protocols.frag import (MAX_FRAGMENTS, FragmentationSession,
                                  FragmentEvent)
from repro.simnet import Network, SimEngine
from repro.simnet.node import NodeKind
from tests.livenet.helpers import offline_live_network

#: What a crafted blob's callable did, if it ever ran.
EXECUTED: list[str] = []


def _crafted_call(tag: str):
    EXECUTED.append(tag)
    # A well-formed (class, payload, headers, source) reassembly.
    return (ApplicationMessage, "owned", [], "ghost")


class _Crafted:
    """Unpickling this runs ``_crafted_call``."""

    def __reduce__(self):
        return (_crafted_call, ("frag",))


def fragment_dict(field: str, value) -> dict:
    """The one fragment of a good message from ``ghost``, with ``field``
    set to ``value`` (dropped when ``value`` is ``None``)."""
    blob = encode_payload((ApplicationMessage, Message("x").wire_copy(),
                           "ghost"))
    fragment = {"origin": "ghost", "frag_id": 1, "index": 0, "total": 1,
                "chunk": blob}
    if value is None:
        del fragment[field]
    else:
        fragment[field] = value
    return fragment


def frag_world(mtu=256, members=("a", "b"), above=()):
    engine = SimEngine()
    network = Network(engine)
    for node_id in members:
        network.add_fixed_node(node_id)
    members_csv = ",".join(members)
    probes = {}
    for node_id in members:
        probes[node_id] = build_ministack(
            network, node_id, members,
            [FragmentationLayer(mtu=mtu),
             BestEffortMulticastLayer(members=members_csv),
             *(layer(members=members_csv) for layer in above)])
    return engine, network, probes


def transmitted_fragment_sizes(monkeypatch) -> list[int]:
    """``size_bytes`` of the message of every fragment the network
    transmits from here on."""
    sizes = []
    transmit = Network.transmit

    def tapped(network, sender, packet):
        if packet.event_cls is FragmentEvent:
            sizes.append(packet.message.size_bytes)
        transmit(network, sender, packet)

    monkeypatch.setattr(Network, "transmit", tapped)
    return sizes


def frag_of(network, node_id):
    return network.node(node_id).kernel.find_channel("data") \
        .session_named("frag")


class TestFragmentation:
    def test_small_messages_pass_untouched(self):
        engine, network, probes = frag_world(mtu=1000)
        probes["a"].send("tiny")
        engine.run_until(1.0)
        assert probes["b"].payloads() == ["tiny"]
        assert frag_of(network, "a").fragmented_count == 0

    def test_large_message_fragmented_and_reassembled(self):
        engine, network, probes = frag_world(mtu=128)
        big = "x" * 1000
        probes["a"].send(big)
        engine.run_until(1.0)
        assert probes["b"].payloads() == [big]
        assert frag_of(network, "a").fragmented_count == 1
        assert frag_of(network, "b").reassembled_count == 1

    def test_fragment_count_matches_size(self):
        engine, network, probes = frag_world(mtu=128)
        network.reset_stats()
        probes["a"].send("y" * 1000)  # chunk = 82 bytes → 13 fragments
        engine.run_until(1.0)
        fragments = network.stats_of("a").sent_by_event["FragmentEvent"]
        assert 12 <= fragments <= 20

    def test_source_attribution_preserved(self):
        engine, network, probes = frag_world(mtu=128)
        probes["a"].send("z" * 500)
        engine.run_until(1.0)
        assert probes["b"].deliveries[0].source == "a"

    def test_interleaved_large_messages_reassemble_independently(self):
        engine, network, probes = frag_world(mtu=128,
                                             members=("a", "b", "c"))
        probes["a"].send("A" * 600)
        probes["c"].send("C" * 600)
        engine.run_until(2.0)
        assert sorted(probes["b"].payloads()) == ["A" * 600, "C" * 600]

    @pytest.mark.parametrize("mtu", [64, 100, 256, 1400])
    def test_every_fragment_fits_its_mtu(self, mtu, monkeypatch):
        sizes = transmitted_fragment_sizes(monkeypatch)
        engine, network, probes = frag_world(mtu=mtu)
        big = "x" * 3000
        probes["a"].send(big)
        engine.run_until(5.0)
        assert probes["b"].payloads() == [big]
        assert len(sizes) > 3000 // mtu
        assert max(sizes) <= mtu

    @pytest.mark.parametrize("mtu", [64, 100, 256, 1400])
    def test_a_message_of_exactly_the_mtu_passes_whole(self, mtu,
                                                       monkeypatch):
        sizes = transmitted_fragment_sizes(monkeypatch)
        fits = next(b"x" * n for n in range(mtu)
                    if Message(b"x" * n).size_bytes == mtu)
        engine, network, probes = frag_world(mtu=mtu)
        probes["a"].send(fits)
        probes["a"].send(fits + b"x")  # one byte more is fragmented
        engine.run_until(1.0)
        assert sorted(probes["b"].payloads()) == [fits, fits + b"x"]
        assert frag_of(network, "a").fragmented_count == 1
        assert sizes and max(sizes) <= mtu

    def test_mtu_validation(self):
        with pytest.raises(ValueError, match="mtu too small"):
            FragmentationLayer(mtu=10).create_session()

    def test_incomplete_reassembly_expires(self):
        engine, network, probes = frag_world(mtu=128)
        frag_b = frag_of(network, "b")
        # Fake a lone fragment arriving (rest lost): inject directly.
        from repro.protocols.frag import FragmentEvent
        from repro.kernel import Message, Direction
        channel = network.node("b").kernel.find_channel("data")
        lone = FragmentEvent(message=Message(payload={
            "origin": "ghost", "frag_id": 1, "index": 0, "total": 5,
            "chunk": b"part"}), source="ghost", dest="b")
        frag_b.reassembly_timeout = 1.0
        channel.insert(lone, Direction.UP)
        engine.run_until(5.0)
        assert frag_b.expired_count == 1
        assert frag_b._buffers == {}

    @pytest.mark.parametrize("blob", [
        pickle.dumps(_Crafted()),
        encode_payload((ApplicationMessage, "not a message", "ghost")),
        encode_payload(("ghost", Message("x").wire_copy(), "ghost")),
        b"\x0e\x00\x1f",  # a message whose payload has an unknown tag
        b"\x0e\x00\x05\x01\xff",  # a message whose text is not UTF-8
    ], ids=["pickle", "payload-not-a-message", "no-class", "corrupt",
            "not-utf8"])
    def test_a_crafted_fragment_is_dropped_and_counted(self, blob):
        engine, network, probes = frag_world(mtu=128)
        frag_b = frag_of(network, "b")
        channel = network.node("b").kernel.find_channel("data")
        crafted = FragmentEvent(message=Message(payload={
            "origin": "ghost", "frag_id": 1, "index": 0, "total": 1,
            "chunk": blob}), source="ghost", dest="b")
        EXECUTED.clear()
        channel.insert(crafted, Direction.UP)
        engine.run_until(1.0)
        assert EXECUTED == []
        assert frag_b.undecodable_dropped == 1
        assert frag_b.reassembled_count == 0
        assert probes["b"].payloads() == []

    @pytest.mark.parametrize("field, value", [
        ("origin", ["ghost"]),
        ("frag_id", None),
        ("frag_id", "1"),
        ("total", 0),
        ("total", MAX_FRAGMENTS + 1),
        ("total", "1"),
        ("index", 1),  # total = 1
        ("index", -1),
        ("chunk", 7),
        ("chunk", "text"),
    ], ids=["origin-list", "no-frag-id", "frag-id-str", "total-zero",
            "total-past-bound", "total-str", "index-past-total",
            "negative-index", "chunk-int", "chunk-str"])
    def test_a_malformed_fragment_is_dropped_and_counted(self, field, value):
        """Nothing is buffered or armed for it, and nothing is raised."""
        engine, network, probes = frag_world(mtu=128)
        frag_b = frag_of(network, "b")
        channel = network.node("b").kernel.find_channel("data")
        channel.insert(FragmentEvent(
            message=Message(payload=fragment_dict(field, value)),
            source="ghost", dest="b"), Direction.UP)
        engine.run_until(1.0)
        assert frag_b.undecodable_dropped == 1
        assert frag_b._buffers == {}
        assert frag_b._sweep_handle is None
        assert frag_b.reassembled_count == 0
        assert probes["b"].payloads() == []

    def test_a_message_past_the_fragment_bound_is_refused_at_the_sender(
            self):
        engine, network, probes = frag_world(mtu=128)
        with pytest.raises(ValueError, match="fragments"):
            probes["a"].send("x" * 128 * (MAX_FRAGMENTS + 1))
        assert frag_of(network, "a").fragmented_count == 0

    def test_a_fragment_payload_that_is_not_a_dict_is_dropped(self):
        engine, network, probes = frag_world(mtu=128)
        channel = network.node("b").kernel.find_channel("data")
        channel.insert(FragmentEvent(message=Message(payload=[b"chunk"]),
                                     source="ghost", dest="b"),
                       Direction.UP)
        assert frag_of(network, "b").undecodable_dropped == 1

    def test_a_fragment_that_disagrees_on_the_total_is_dropped(self):
        engine, network, probes = frag_world(mtu=128)
        frag_b = frag_of(network, "b")
        channel = network.node("b").kernel.find_channel("data")
        for index, total in ((0, 2), (1, 3)):
            channel.insert(FragmentEvent(message=Message(payload={
                "origin": "ghost", "frag_id": 1, "index": index,
                "total": total, "chunk": b"part"}), source="ghost",
                dest="b"), Direction.UP)
        assert frag_b.undecodable_dropped == 1
        assert frag_b._buffers[("ghost", 1)].chunks == {0: b"part"}

    def test_a_malformed_fragment_frame_on_the_live_wire_is_dropped(self):
        network, _, _ = offline_live_network(
            {"a": NodeKind.FIXED, "b": NodeKind.FIXED})
        probe = build_ministack(network, "b", ("a", "b"), [
            FragmentationLayer(mtu=128),
            BestEffortMulticastLayer(members="a,b")])
        for field, value in (("index", 1), ("frag_id", None)):
            frame = encode_frame(Packet(
                src="a", dst="b", port="data", event_cls=FragmentEvent,
                message=Message(payload=fragment_dict(field, value))
                .wire_copy()))
            network._on_datagram("b", frame, ("127.0.0.1", 1))
        frag_b = frag_of(network, "b")
        assert (network.decode_errors, network.delivered_packets) == (0, 2)
        assert frag_b.undecodable_dropped == 2
        assert frag_b._buffers == {}
        assert probe.payloads() == []

    def test_a_reassembled_event_keeps_class_headers_and_size(
            self, monkeypatch):
        sent, arrived = [], []
        fragment = FragmentationSession._fragment
        send_up = FragmentationSession.send_up

        def recording_fragment(session, event):
            sent.append((type(event), event.source, event.message.headers,
                         event.message.size_bytes))
            fragment(session, event)

        def recording_send_up(session, event, channel=None):
            arrived.append((type(event), event.source, event.message.headers,
                            event.message.size_bytes))
            send_up(session, event, channel)

        monkeypatch.setattr(FragmentationSession, "_fragment",
                            recording_fragment)
        monkeypatch.setattr(FragmentationSession, "send_up",
                            recording_send_up)
        engine, network, probes = frag_world(
            mtu=128, above=(ReliableMulticastLayer,))
        probes["a"].send({"text": "x" * 600, "seq": 7})
        engine.run_until(1.0)
        assert probes["b"].payloads() == [{"text": "x" * 600, "seq": 7}]
        assert len(sent) == 1
        assert arrived == sent
        assert sent[0][0] is ApplicationMessage
        assert sent[0][2]  # the reliable layer's header rides along
