"""Unit tests for the FEC layer and the epidemic gossip layer."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.apps.workload import ProbeSession
from repro.experiments.ministacks import (build_ministack, fec_stack,
                                          flood_stack, gossip_stack)
from repro.kernel import Direction, Message
from repro.kernel.codec import encode_payload
from repro.kernel.packet import Packet
from repro.livenet.frame import encode_frame
from repro.protocols import fec as fec_module
from repro.protocols.events import (ApplicationMessage, ParityMessage,
                                    View, ViewEvent)
from repro.protocols.fec import FecLayer
from repro.protocols.rs_code import rs_encode
from repro.simnet import BernoulliLoss, LinkParams, Network, SimEngine
from repro.simnet.node import NodeKind
from tests.livenet.helpers import offline_live_network

#: What a crafted blob's callable did, if it ever ran.
EXECUTED: list[str] = []


def _crafted_call(tag: str):
    EXECUTED.append(tag)
    return ("owned", [])  # a well-formed (payload, headers) pair


class _Crafted:
    """Unpickling this runs ``_crafted_call``."""

    def __reduce__(self):
        return (_crafted_call, ("fec",))


def corrupt_nested_message() -> bytes:
    """A message's wire form whose payload blob's dict tag is ``0x1F``."""
    message = Message(payload={"kind": "chat"}).wire_copy()
    blob = bytearray(encode_payload(message))
    at = bytes(blob).index(message._payload.blob)
    assert blob[at] == 0x0D
    blob[at] = 0x1F
    return bytes(blob)


def parity_dict(field: str, value) -> dict:
    """A k=1, m=1 parity of a good message from ``s``, with ``field`` set
    to ``value`` (dropped when ``value`` is ``None``)."""
    blob = encode_payload(Message("hello").wire_copy())
    parity = {"sender": "s", "block": 0, "parity_index": 0, "k": 1, "m": 1,
              "lengths": [len(blob)], "data": rs_encode([blob], 1)[0]}
    if value is None:
        del parity[field]
    else:
        parity[field] = value
    return parity


def loss_world(member_ids, loss=0.0, seed=5, mobile=()):
    engine = SimEngine()
    wireless = LinkParams(latency_s=0.002, bandwidth_bps=11e6,
                          loss=BernoulliLoss(loss, random.Random(seed)))
    network = Network(engine, wireless=wireless)
    for node_id in member_ids:
        if node_id in mobile:
            network.add_mobile_node(node_id)
        else:
            network.add_fixed_node(node_id)
    return engine, network


class TestFec:
    def test_lossless_block_needs_no_recovery(self):
        members = ["s", "r0", "r1"]
        engine, network = loss_world(members)
        probes = {node_id: build_ministack(
            network, node_id, members, fec_stack(",".join(members), k=4, m=1))
            for node_id in members}
        for index in range(8):  # exactly two blocks
            probes["s"].send(index)
        engine.run_until(10.0)
        for node_id in ("r0", "r1"):
            assert probes[node_id].payloads() == list(range(8))
            fec = network.node(node_id).kernel.find_channel("data") \
                .session_named("fec")
            assert fec.recovered_count == 0

    def test_parity_messages_emitted_per_block(self):
        members = ["s", "r0"]
        engine, network = loss_world(members)
        probes = {node_id: build_ministack(
            network, node_id, members, fec_stack(",".join(members), k=4, m=2))
            for node_id in members}
        network.reset_stats()
        for index in range(8):
            probes["s"].send(index)
        engine.run_until(5.0)
        parity_sent = network.stats_of("s").sent_by_event["ParityMessage"]
        assert parity_sent == 4  # 2 blocks × m=2 (one receiver)

    def test_losses_recovered_from_parity(self):
        members = ["s", "r0"]
        engine, network = loss_world(members, loss=0.2, seed=9,
                                     mobile=("s",))
        probes = {node_id: build_ministack(
            network, node_id, members, fec_stack(",".join(members), k=4, m=2))
            for node_id in members}
        for index in range(40):
            probes["s"].send(index)
        engine.run_until(30.0)
        assert sorted(probes["r0"].payloads()) == list(range(40))
        fec = network.node("r0").kernel.find_channel("data") \
            .session_named("fec")
        assert fec.recovered_count > 0

    def test_a_view_change_abandons_a_partial_block_under_a_fresh_id(self):
        # FEC sits below view synchrony: a receiver can still hold pieces
        # of the old view's block when the new view's arrive, and two
        # blocks under one id would decode into garbage.
        members = ["s", "r0"]
        engine, network = loss_world(members)
        probes = {node_id: build_ministack(
            network, node_id, members, fec_stack(",".join(members), k=4, m=1))
            for node_id in members}

        def fec_of(node_id):
            return network.node(node_id).kernel.find_channel("data") \
                .session_named("fec")

        for index in range(3):
            probes["s"].send(index)
        engine.run_until(1.0)
        assert set(fec_of("r0")._blocks) == {("s", 0)}
        fec_of("s").handle(ViewEvent(View("data", 1, ("r0", "s"))))
        for index in range(3, 5):
            probes["s"].send(index)
        engine.run_until(2.0)
        assert set(fec_of("r0")._blocks) == {("s", 0), ("s", 1)}
        assert probes["r0"].payloads() == [0, 1, 2, 3, 4]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="invalid FEC parameters"):
            FecLayer(k=0, m=2).create_session()
        with pytest.raises(ValueError, match="invalid FEC parameters"):
            FecLayer(k=200, m=100).create_session()

    def test_incomplete_block_given_up_after_timeout(self):
        members = ["s", "r0"]
        engine, network = loss_world(members)
        probes = {node_id: build_ministack(
            network, node_id, members, fec_stack(",".join(members), k=8, m=1))
            for node_id in members}
        for node_id in members:
            network.node(node_id).kernel.find_channel("data") \
                .session_named("fec").giveup_timeout = 1.0
        # Send only 3 of a k=8 block: the block never completes.
        for index in range(3):
            probes["s"].send(index)
        engine.run_until(10.0)
        fec = network.node("r0").kernel.find_channel("data") \
            .session_named("fec")
        assert fec._blocks == {}  # swept away
        assert probes["r0"].payloads() == [0, 1, 2]  # data still delivered


    @pytest.mark.parametrize("blob", [
        pickle.dumps(_Crafted()),
        encode_payload({"kind": "chat"}),  # a wire value, not a message
        corrupt_nested_message(),
        b"\x0e\x00\x05\x01\xff",  # a message whose text is not UTF-8
    ], ids=["pickle", "not-a-message", "corrupt-payload", "not-utf8"])
    def test_a_crafted_parity_block_is_dropped_and_counted(self, blob):
        """With k=1, m=1 the parity of a block is the block itself, so a
        plain-data parity dict decides what the receiver thaws."""
        members = ["s", "r0"]
        engine, network = loss_world(members)
        probes = {node_id: build_ministack(
            network, node_id, members, fec_stack(",".join(members), k=1, m=1))
            for node_id in members}
        engine.run_until(1.0)
        channel = network.node("r0").kernel.find_channel("data")
        parity = ParityMessage(message=Message(payload={
            "sender": "s", "block": 99, "parity_index": 0, "k": 1, "m": 1,
            "lengths": [len(blob)], "data": rs_encode([blob], 1)[0]}),
            source="s", dest="r0")
        EXECUTED.clear()
        channel.insert_from(channel.session_named("beb"), parity,
                            Direction.UP)
        engine.run_until(2.0)
        assert EXECUTED == []
        fec = channel.session_named("fec")
        assert fec.undecodable_dropped == 1
        assert fec.recovered_count == 0
        assert probes["r0"].payloads() == []

    @pytest.mark.parametrize("field, value", [
        ("sender", ["s"]),
        ("block", None),
        ("block", -1),
        ("parity_index", 1),  # m = 1
        ("parity_index", "0"),
        ("lengths", "ab"),
        ("lengths", [7, 7]),  # k = 1
        ("lengths", [1.5]),
        ("data", "text"),
    ], ids=["sender-list", "no-block", "negative-block", "index-past-m",
            "index-str", "lengths-str", "lengths-count", "length-float",
            "data-str"])
    def test_a_malformed_parity_dict_is_dropped_and_counted(self, field,
                                                           value):
        """Everything else in the dict is a good parity of a good
        message (with k=1, m=1 the parity is the block itself)."""
        members = ["s", "r0"]
        engine, network = loss_world(members)
        probes = {node_id: build_ministack(
            network, node_id, members, fec_stack(",".join(members), k=1, m=1))
            for node_id in members}
        channel = network.node("r0").kernel.find_channel("data")
        channel.insert_from(channel.session_named("beb"), ParityMessage(
            message=Message(payload=parity_dict(field, value)),
            source="s", dest="r0"), Direction.UP)
        engine.run_until(1.0)
        fec = channel.session_named("fec")
        assert fec.undecodable_dropped == 1
        assert fec._blocks == {}
        assert fec.recovered_count == 0
        assert probes["r0"].payloads() == []

    def test_a_parity_payload_that_is_not_a_dict_is_dropped(self):
        members = ["s", "r0"]
        engine, network = loss_world(members)
        build_ministack(network, "r0", members, fec_stack("s,r0", k=1, m=1))
        channel = network.node("r0").kernel.find_channel("data")
        channel.insert_from(channel.session_named("beb"), ParityMessage(
            message=Message(payload=["s", 0, 0]), source="s", dest="r0"),
            Direction.UP)
        assert channel.session_named("fec").undecodable_dropped == 1

    @pytest.mark.parametrize("header", [
        ("fec", "s", 0, 1),  # k = 1
        ("fec", "s", 0, "0"),
        ("fec", "s", "0", 0),
        ("fec", ("s",), 0, 0),
    ], ids=["position-past-k", "position-str", "block-str", "sender-tuple"])
    def test_a_malformed_data_header_is_dropped_and_counted(self, header):
        members = ["s", "r0"]
        engine, network = loss_world(members)
        probe = build_ministack(network, "r0", members,
                                fec_stack("s,r0", k=1, m=1))
        channel = network.node("r0").kernel.find_channel("data")
        message = Message("hello")
        message.push_header(header)
        channel.insert_from(channel.session_named("beb"), ApplicationMessage(
            message=message, source="s", dest="r0"), Direction.UP)
        engine.run_until(1.0)
        fec = channel.session_named("fec")
        assert fec.undecodable_dropped == 1
        assert fec._blocks == {}
        assert probe.payloads() == []

    def test_a_malformed_parity_frame_on_the_live_wire_is_dropped(self):
        network, _, _ = offline_live_network(
            {"s": NodeKind.FIXED, "r0": NodeKind.FIXED})
        probe = build_ministack(network, "r0", ["s", "r0"],
                                fec_stack("s,r0", k=1, m=1))
        for field, value in (("block", None), ("parity_index", 1)):
            frame = encode_frame(Packet(
                src="s", dst="r0", port="data", event_cls=ParityMessage,
                message=Message(payload=parity_dict(field, value))
                .wire_copy()))
            network._on_datagram("r0", frame, ("127.0.0.1", 1))
        fec = network.node("r0").kernel.find_channel("data") \
            .session_named("fec")
        assert (network.decode_errors, network.delivered_packets) == (0, 2)
        assert fec.undecodable_dropped == 2
        assert fec._blocks == {}
        assert probe.payloads() == []

    def test_a_recovered_message_keeps_its_headers_and_size(self,
                                                            monkeypatch):
        frozen, thawed = {}, []
        freeze, thaw = fec_module._freeze, fec_module._thaw

        def recording_freeze(message):
            blob = freeze(message)
            frozen[blob] = (message.headers, message.size_bytes,
                            message.payload)
            return blob

        def recording_thaw(blob):
            message = thaw(blob)
            thawed.append((blob, (message.headers, message.size_bytes,
                                  message.payload)))
            return message

        monkeypatch.setattr(fec_module, "_freeze", recording_freeze)
        monkeypatch.setattr(fec_module, "_thaw", recording_thaw)
        members = ["s", "r0"]
        engine, network = loss_world(members, loss=0.2, seed=9,
                                     mobile=("s",))
        probes = {node_id: build_ministack(
            network, node_id, members, fec_stack(",".join(members), k=4, m=2))
            for node_id in members}
        for index in range(40):
            probes["s"].send(index)
        engine.run_until(30.0)
        assert sorted(probes["r0"].payloads()) == list(range(40))
        assert thawed
        for blob, recovered in thawed:
            headers, size_bytes, _ = recovered
            assert headers  # the reliable layer's sequencing header
            assert recovered == frozen[blob]
            assert size_bytes == Message(
                recovered[2], headers=headers).size_bytes


class TestGossip:
    def build(self, num_nodes, fanout=3, rounds=4, seed=1):
        members = [f"n{i}" for i in range(num_nodes)]
        engine, network = loss_world(members, seed=seed)
        probes = {node_id: build_ministack(
            network, node_id, members,
            gossip_stack(",".join(members), fanout=fanout, rounds=rounds,
                         seed=seed))
            for node_id in members}
        return engine, network, probes, members

    def test_rumor_reaches_most_members(self):
        engine, network, probes, members = self.build(16)
        probes["n0"].send("rumor")
        engine.run_until(5.0)
        delivered = sum(1 for node_id in members[1:]
                        if "rumor" in probes[node_id].payloads())
        assert delivered >= 13  # probabilistic, but high for fanout 3 / 4 rounds

    def test_exactly_once_delivery_per_member(self):
        engine, network, probes, members = self.build(12)
        for index in range(5):
            probes["n0"].send(index)
        engine.run_until(10.0)
        for node_id in members:
            payloads = probes[node_id].payloads()
            assert len(payloads) == len(set(payloads))

    def test_origin_load_bounded_by_fanout(self):
        engine, network, probes, members = self.build(32, fanout=3)
        network.reset_stats()
        probes["n0"].send("load-test")
        engine.run_until(5.0)
        assert network.stats_of("n0").sent_total <= 3

    def test_deterministic_given_seed(self):
        def run():
            engine, network, probes, members = self.build(10, seed=77)
            probes["n0"].send("det")
            engine.run_until(5.0)
            return sorted(node_id for node_id in members
                          if "det" in probes[node_id].payloads())

        assert run() == run()

    def test_source_attribution_preserved(self):
        engine, network, probes, members = self.build(8)
        probes["n3"].send("from-n3")
        engine.run_until(5.0)
        for node_id in members:
            for delivery in probes[node_id].deliveries:
                assert delivery.source == "n3"

    def test_one_round_infects_exactly_fanout_peers(self):
        engine, network, probes, members = self.build(16, fanout=3, rounds=1)
        probes["n0"].send("short")
        engine.run_until(5.0)
        infected = [node_id for node_id in members[1:]
                    if "short" in probes[node_id].payloads()]
        assert len(infected) == 3  # nobody relays a rumor at its last round
        assert sum(network.stats_of(node_id).sent_total
                   for node_id in members) == 3

    @pytest.mark.parametrize("rounds", [2, 3])
    def test_rounds_bound_the_sends(self, rounds):
        engine, network, probes, members = self.build(32, fanout=2,
                                                      rounds=rounds)
        probes["n0"].send("bounded")
        engine.run_until(5.0)
        # Hop h pushes to ``fanout`` peers only while h < rounds.
        bound = sum(2 ** hop for hop in range(1, rounds + 1))
        sent = sum(network.stats_of(node_id).sent_total
                   for node_id in members)
        assert 2 <= sent <= bound

    def test_zero_rounds_keeps_the_rumor_home(self):
        engine, network, probes, members = self.build(6, rounds=0)
        probes["n0"].send("home")
        engine.run_until(5.0)
        assert probes["n0"].payloads() == ["home"]
        assert all(probes[node_id].payloads() == []
                   for node_id in members[1:])
        assert network.stats_of("n0").sent_total == 0

    def test_the_origin_is_never_sent_its_own_rumor(self):
        engine, network, probes, members = self.build(12)
        probes["n0"].send("outbound")
        engine.run_until(5.0)
        assert probes["n0"].payloads() == ["outbound"]
        assert network.stats_of("n0").recv_total == 0

    def test_every_node_pushes_a_rumor_at_most_once(self):
        engine, network, probes, members = self.build(16, fanout=3, rounds=6)
        probes["n0"].send("once")
        engine.run_until(5.0)
        for node_id in members:
            assert network.stats_of(node_id).sent_total <= 3, node_id

    def test_a_fanout_above_the_group_reaches_every_peer_once(self):
        engine, network, probes, members = self.build(4, fanout=10, rounds=1)
        probes["n0"].send("all")
        engine.run_until(5.0)
        for node_id in members:
            assert probes[node_id].payloads() == ["all"]
        assert network.stats_of("n0").sent_total == 3
