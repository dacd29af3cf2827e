"""Whole-system determinism: the repository's strongest guarantee.

Every experiment in EXPERIMENTS.md is only meaningful if identical
invocations produce identical numbers.  These tests run the full Morpheus
pipeline — context dissemination, policy, flush, stack swap, chat — twice
and require bit-identical counters, and verify the packet trace facility
used for debugging such runs.
"""

from __future__ import annotations

from repro.core import build_morpheus_group
from repro.scenarios import canned, commuter_handoff, run_scenario
from repro.simnet import Network, PacketTrace, SimEngine


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
