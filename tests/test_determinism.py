"""Whole-system determinism: the repository's strongest guarantee.

Every experiment in EXPERIMENTS.md is only meaningful if identical
invocations produce identical numbers.  These tests run the full Morpheus
pipeline — context dissemination, policy, flush, stack swap, chat — twice
and require bit-identical counters, and verify the packet trace facility
used for debugging such runs.
"""

from __future__ import annotations

import dataclasses

from repro.core import build_morpheus_group
from repro.scenarios import (ChatBurst, NodeSpec, Partition, Scenario,
                             canned, commuter_handoff, run_scenario)
from repro.simnet import Network, PacketTrace, SimEngine
from repro.simnet.engine import HeapSimEngine
from tests.simnet.unbatched import unbatched


def run_full_scenario() -> dict:
    engine = SimEngine()
    network = Network(engine)
    network.add_fixed_node("fixed-0")
    network.add_mobile_node("mobile-0")
    network.add_mobile_node("mobile-1")
    nodes = build_morpheus_group(network, publish_interval=1.0,
                                 evaluate_interval=1.0,
                                 heartbeat_interval=2.0)
    for index in range(30):
        engine.call_at(1.0 + index * 0.5,
                       lambda i=index: nodes["mobile-0"].send(f"d-{i}"))
    engine.run_until(30.0)
    return {
        "stats": {node_id: network.stats_of(node_id).snapshot()
                  for node_id in network.node_ids()},
        "texts": {node_id: tuple(node.chat.texts())
                  for node_id, node in nodes.items()},
        "stacks": {node_id: tuple(node.current_stack())
                   for node_id, node in nodes.items()},
        "engine_events": engine.fired_count,
    }


class TestWholeSystemDeterminism:
    def test_identical_runs_identical_counters(self):
        assert run_full_scenario() == run_full_scenario()

    def test_the_run_delivers_every_message_in_order(self):
        # Lossless links: nothing in this run draws a random number, so
        # the comparison above is not vacuous only if messages flow.
        first = run_full_scenario()
        assert first["texts"]["fixed-0"] == tuple(
            f"d-{i}" for i in range(30))


class TestScenarioDeterminism:
    """Dynamic-topology runs obey the same guarantee as static ones: the
    seed fully determines the run — event traces, stacks, counters and
    deliveries are byte-identical across replays, and a different seed
    produces a genuinely different run (the loss draws differ)."""

    def test_same_seed_yields_identical_runs(self):
        scenario = commuter_handoff(messages=40, duration_s=60.0)
        first = run_scenario(scenario, seed=13)
        second = run_scenario(scenario, seed=13)
        assert first == second
        assert first.trace == second.trace
        assert first.stats == second.stats
        assert first.stack_history == second.stack_history

    def test_different_seeds_yield_different_runs(self):
        # The commuter scenario draws from a lossy wireless cell, so the
        # seed must visibly steer the run.
        scenario = commuter_handoff(messages=40, duration_s=60.0)
        first = run_scenario(scenario, seed=13)
        other = run_scenario(scenario, seed=14)
        assert (first.trace, first.stats, first.texts) != \
            (other.trace, other.stats, other.texts)

    def test_churn_scenario_replays_identically(self):
        first = run_scenario(canned("churn_storm", messages=60,
                                    duration_s=60.0), seed=2)
        second = run_scenario(canned("churn_storm", messages=60,
                                     duration_s=60.0), seed=2)
        assert first == second


SIDE_A = ("f0", "f1", "f2")
SIDE_B = ("f3", "f4", "f5")


def split_scenario(with_side_a_burst: bool = True,
                   with_side_b_burst: bool = True) -> Scenario:
    """Six fixed nodes split into two sides at t=0, one sender per side."""
    workload = []
    if with_side_a_burst:
        workload.append(ChatBurst(5.0, "f0", count=40, prefix="a"))
    if with_side_b_burst:
        workload.append(ChatBurst(5.0, "f3", count=40, prefix="b"))
    return Scenario(name="split", duration_s=45.0,
                    nodes=tuple(NodeSpec(node) for node in SIDE_A + SIDE_B),
                    events=(Partition(0.0, (SIDE_A, SIDE_B)),),
                    workload=tuple(workload), heartbeat_interval=1.0)


class TestDisjointGroupsOnOneRunner:
    def test_each_side_runs_as_if_alone(self):
        # Two groups that never exchange a packet share one engine; each
        # must deliver its own stream and be blind to the other's.
        result = run_scenario(split_scenario(), seed=3)
        for side, prefix in ((SIDE_A, "a"), (SIDE_B, "b")):
            stream = tuple(f"{prefix}-{index}" for index in range(40))
            for node in side:
                assert result.texts[node] == stream
                assert result.control_views[node] == side
        alone = run_scenario(split_scenario(with_side_b_burst=False),
                             seed=3)
        for node in SIDE_A:
            assert result.texts[node] == alone.texts[node]
            assert result.stats[node] == alone.stats[node]
            assert result.stats[node]["sent_total"] > 0

    def test_side_b_is_blind_to_side_a_burst(self):
        result = run_scenario(split_scenario(), seed=3)
        alone = run_scenario(split_scenario(with_side_a_burst=False),
                             seed=3)
        assert alone.texts["f0"] == ()
        for node in SIDE_B:
            assert result.texts[node] == alone.texts[node]
            assert result.stats[node] == alone.stats[node]

    def test_split_run_is_independent_of_delivery_batching(self):
        batched = run_scenario(split_scenario(), seed=4)
        with unbatched():
            plain = run_scenario(split_scenario(), seed=4)
        assert batched.engine_events < plain.engine_events
        assert dataclasses.replace(batched, engine_events=0) == \
            dataclasses.replace(plain, engine_events=0)

    def test_heap_engine_agrees_on_split_run(self):
        wheel = run_scenario(split_scenario(), seed=9)
        heap = run_scenario(split_scenario(), seed=9,
                            engine_factory=HeapSimEngine)
        assert wheel == heap  # engine_events included


class TestPacketTrace:
    def test_trace_records_transmissions(self):
        engine = SimEngine()
        network = Network(engine)
        network.add_fixed_node("a")
        network.add_fixed_node("b")
        trace = PacketTrace(network).install()
        nodes = build_morpheus_group(network, publish_interval=1.0,
                                     evaluate_interval=5.0)
        engine.run_until(3.0)
        nodes["a"].send("traced")
        engine.run_until(5.0)
        assert trace.count(event="ApplicationMessage", src="a") == 1
        assert trace.count(src="a") > 1  # control traffic too
        dump = trace.dump(limit=5)
        assert len(dump.splitlines()) == 5

    def test_uninstall_stops_recording(self):
        engine = SimEngine()
        network = Network(engine)
        network.add_fixed_node("a")
        network.add_fixed_node("b")
        trace = PacketTrace(network).install()
        nodes = build_morpheus_group(network, publish_interval=1.0,
                                     evaluate_interval=5.0)
        engine.run_until(2.0)
        recorded = len(trace.entries)
        trace.uninstall()
        engine.run_until(10.0)
        assert len(trace.entries) == recorded
