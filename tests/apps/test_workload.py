"""Workload drivers: paced/Poisson senders and the probe application."""

from __future__ import annotations

import random

import pytest

from repro.apps.workload import (PacedSender, PoissonSender,
                                 multi_sender_round_robin)
from repro.experiments.ministacks import build_ministack, flood_stack
from repro.simnet import Network, SimEngine


@pytest.fixture
def probes():
    engine = SimEngine()
    network = Network(engine)
    members = ["a", "b"]
    for node_id in members:
        network.add_fixed_node(node_id)
    sessions = {node_id: build_ministack(network, node_id, members,
                                         flood_stack("a,b"))
                for node_id in members}
    return engine, network, sessions


class TestPacedSender:
    def test_exact_count_and_spacing(self, probes):
        engine, network, sessions = probes
        pacer = PacedSender(engine, sessions["a"].send, count=10, rate=10.0,
                            start=1.0)
        last = pacer.schedule_all()
        assert last == pytest.approx(1.9)
        engine.run_until(5.0)
        assert pacer.sent == 10
        deliveries = sessions["b"].deliveries
        assert len(deliveries) == 10
        gaps = [b.time - a.time for a, b in zip(deliveries, deliveries[1:])]
        assert all(gap == pytest.approx(0.1) for gap in gaps)

    def test_custom_payload_factory(self, probes):
        engine, network, sessions = probes
        PacedSender(engine, sessions["a"].send, count=3, rate=10.0,
                    make_payload=lambda i: ("custom", i)).schedule_all()
        engine.run_until(2.0)
        assert sessions["b"].payloads() == [("custom", i) for i in range(3)]


class TestPoissonSender:
    def test_sends_all_with_random_spacing(self, probes):
        engine, network, sessions = probes
        sender = PoissonSender(engine, sessions["a"].send, count=20,
                               mean_rate=10.0, rng=random.Random(3))
        sender.schedule_all()
        engine.run_until(60.0)
        assert sender.sent == 20
        deliveries = sessions["b"].deliveries
        gaps = [b.time - a.time for a, b in zip(deliveries, deliveries[1:])]
        assert len(set(round(g, 6) for g in gaps)) > 3  # not constant

    def test_deterministic_given_seed(self, probes):
        engine, network, sessions = probes

        def run(seed):
            sender = PoissonSender(engine, lambda p: None, count=5,
                                   mean_rate=1.0, rng=random.Random(seed))
            return sender.schedule_all()

        assert run(1) == run(1)
        assert run(1) != run(2)


class TestProbe:
    def test_latency_measurement(self, probes):
        engine, network, sessions = probes
        engine.run_until(0.1)
        sessions["a"].send("timed")
        engine.run_until(1.0)
        delivery = sessions["b"].deliveries[0]
        latency = sessions["b"].latency_of(delivery, sessions["a"])
        assert latency is not None
        assert 0.0 < latency < 0.01  # one wired hop

    def test_latency_none_for_unknown_payload(self, probes):
        engine, network, sessions = probes
        engine.run_until(0.1)
        sessions["a"].send("known")
        engine.run_until(1.0)
        delivery = sessions["b"].deliveries[0]
        assert sessions["b"].latency_of(delivery, sessions["b"]) is None

    def test_unhashable_payloads_supported(self, probes):
        engine, network, sessions = probes
        engine.run_until(0.1)
        sessions["a"].send({"k": [1, 2]})
        engine.run_until(1.0)
        delivery = sessions["b"].deliveries[0]
        assert sessions["b"].latency_of(delivery, sessions["a"]) is not None


class TestRoundRobin:
    def test_distributes_over_senders(self, probes):
        engine, network, sessions = probes
        engine.run_until(0.1)
        multi_sender_round_robin([sessions["a"], sessions["b"]], count=6)
        engine.run_until(2.0)
        from_a = [d for d in sessions["b"].deliveries if d.source == "a"]
        from_b = [d for d in sessions["a"].deliveries if d.source == "b"]
        assert len(from_a) == 3 and len(from_b) == 3
