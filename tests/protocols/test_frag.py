"""Fragmentation/reassembly of oversized messages."""

from __future__ import annotations

import pytest

from repro.experiments.ministacks import build_ministack
from repro.protocols import BestEffortMulticastLayer, FragmentationLayer
from repro.simnet import Network, SimEngine


def frag_world(mtu=256, members=("a", "b")):
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
             BestEffortMulticastLayer(members=members_csv)])
    return engine, network, probes


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
        probes["a"].send("y" * 1000)  # chunk = 64 bytes → ~16 fragments
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
