"""Unit tests for the FEC layer and the epidemic gossip layer."""

from __future__ import annotations

import random

import pytest

from repro.apps.workload import ProbeSession
from repro.experiments.ministacks import (build_ministack, fec_stack,
                                          flood_stack, gossip_stack)
from repro.protocols.fec import FecLayer
from repro.simnet import BernoulliLoss, LinkParams, Network, SimEngine


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

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="invalid FEC parameters"):
            FecLayer(k=0, m=2).create_session()
        with pytest.raises(ValueError, match="invalid FEC parameters"):
            FecLayer(k=200, m=100).create_session()

    def test_incomplete_block_given_up_after_timeout(self):
        members = ["s", "r0"]
        engine, network = loss_world(members)
        fec_layers = fec_stack(",".join(members), k=8, m=1,
                               giveup_timeout=1.0)
        probes = {node_id: build_ministack(
            network, node_id, members,
            fec_stack(",".join(members), k=8, m=1, giveup_timeout=1.0)
            if node_id == "r0" else fec_layers)
            for node_id in members}
        # Send only 3 of a k=8 block: the block never completes.
        for index in range(3):
            probes["s"].send(index)
        engine.run_until(10.0)
        fec = network.node("r0").kernel.find_channel("data") \
            .session_named("fec")
        assert fec._blocks == {}  # swept away
        assert probes["r0"].payloads() == [0, 1, 2]  # data still delivered


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
