"""Scenario runner: live adaptation under dynamic topology.

The acceptance test of the subsystem is here: a canned handoff scenario
demonstrably triggers a live Morpheus reconfiguration mid-run (the data
stack before the handoff differs from the one after), and a replay with
the same seed reproduces the run exactly.
"""

from __future__ import annotations

import pytest

from repro.scenarios import (CANNED, ScenarioRunner, canned, churn_storm,
                             commuter_handoff, degrading_channel_fec,
                             flash_crowd_join, partition_heal, run_scenario)
from repro.scenarios.fuzz import ALWAYS_ON
from repro.simnet.engine import HeapSimEngine


CRASHED_KERNELS_TICK = (
    "a crashed kernel keeps firing its timers (mobile-2 of churn_storm, "
    "never recovered: 4.88 here): a crash pauses the node, and its state "
    "must survive recover_node")


def _quiet_timer_load(departed_too: bool) -> float:
    """Kernel timer dispatches per live node-second in 30 quiet seconds
    after a 10-member churn storm.  ``departed_too`` counts the kernels of
    crashed and departed nodes as well (the divisor stays the live ones)."""
    scenario = churn_storm(members=10)
    runner = ScenarioRunner(scenario, seed=0)
    runner.run()
    nodes = [morpheus.node for morpheus in runner.morpheus.values()]
    kernels = [node.kernel for node in nodes if departed_too or node.alive]
    live = sum(1 for node in nodes if node.alive)
    before = sum(kernel.timer_dispatched_count for kernel in kernels)
    quiet_s = 30.0
    runner.engine.run_until(scenario.duration_s + quiet_s)
    dispatches = sum(kernel.timer_dispatched_count
                     for kernel in kernels) - before
    return dispatches / quiet_s / live


@pytest.mark.tier1
class TestCommuterHandoff:
    def test_handoff_triggers_live_reconfiguration(self):
        result = run_scenario(commuter_handoff(), seed=5)
        stacks = result.stacks_of("commuter")
        # Before the handoff: the plain (beb) stack.  After: Mecho.  After
        # docking back: plain again — two live switches, no restart.
        assert len(stacks) == 3
        before, during, after = stacks
        assert before != during, "handoff must change the live stack"
        assert "mecho" in during and "mecho" not in before
        assert after == before
        assert result.reconfiguration_count() == 2

    def test_no_message_lost_across_switches(self):
        result = run_scenario(commuter_handoff(), seed=5)
        expected = tuple(f"m-{i}" for i in range(100))
        for node_id, texts in result.texts.items():
            assert texts == expected, node_id

    def test_same_seed_replays_identically(self):
        first = run_scenario(commuter_handoff(), seed=5)
        second = run_scenario(commuter_handoff(), seed=5)
        assert first == second
        assert first.trace == second.trace

    def test_trace_records_moves_and_reconfigurations(self):
        result = run_scenario(commuter_handoff(), seed=5)
        assert any("move commuter to mobile" in line
                   for line in result.trace)
        assert any("reconfigured to hybrid" in line
                   for line in result.trace)


class TestFlashCrowdJoin:
    def test_every_wave_admitted_and_deployed(self):
        result = run_scenario(flash_crowd_join(), seed=5)
        everyone = ("fixed-0", "fixed-1", "mobile-0", "mobile-1", "mobile-2")
        for node_id, view in result.control_views.items():
            assert view == everyone, node_id
        # Each admitted wave costs (at least) one redeployment.
        assert result.reconfiguration_count() >= 3
        assert result.deployed["mobile-2"].startswith("hybrid")

    def test_joiners_receive_post_join_traffic(self):
        result = run_scenario(flash_crowd_join(), seed=5)
        full = result.texts["fixed-1"]
        assert len(full) == 100
        for joiner in ("mobile-0", "mobile-1", "mobile-2"):
            texts = result.texts[joiner]
            assert texts, f"{joiner} never delivered anything"
            # View synchrony: a joiner's deliveries are a contiguous tail.
            assert texts == full[-len(texts):], joiner


class TestChurnStorm:
    def test_survivors_agree_end_to_end(self):
        result = run_scenario(churn_storm(), seed=5)
        assert result.texts["fixed-0"] == result.texts["mobile-0"]
        assert len(result.texts["fixed-0"]) == 120

    def test_recovered_member_rejoined(self):
        result = run_scenario(churn_storm(), seed=5)
        assert "mobile-1" in result.control_views["fixed-0"]

    def test_leaver_and_dead_member_stay_out(self):
        result = run_scenario(churn_storm(), seed=5)
        survivors = result.control_views["fixed-0"]
        assert "fixed-1" not in survivors   # left gracefully
        assert "mobile-2" not in survivors  # crashed, never recovered

    def test_settled_group_costs_only_background_timers(self):
        # After the storm a quiet view runs heartbeat expiry (two
        # channels), the node's supervision beat, the context publish and
        # evaluate beats and the Mecho relay probe: about 4.35 kernel
        # timer dispatches per live node-second here.  The gap scan and
        # the fec sweep are armed on demand and stop on an empty table;
        # one that stays armed adds up to four per channel.
        per_node_s = _quiet_timer_load(departed_too=False)
        assert per_node_s <= 4.5, (
            f"{per_node_s:.2f} timer dispatches per node-second in a quiet "
            "view: a GC sweep is ticking while its table is empty?")

    def test_departed_node_stops_its_timers(self):
        scenario = churn_storm(members=10)
        runner = ScenarioRunner(scenario, seed=0)
        runner.run()
        kernel = runner.network.departed["fixed-1"].kernel
        before = kernel.timer_dispatched_count
        runner.engine.run_until(scenario.duration_s + 30.0)
        assert kernel.timer_dispatched_count == before

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=CRASHED_KERNELS_TICK)
    def test_departed_nodes_cost_no_timers(self):
        # The same ceiling over every node's kernel, crashed and departed
        # ones included, still divided by the live nodes: 4.88 here.
        per_node_s = _quiet_timer_load(departed_too=True)
        assert per_node_s <= 4.5, (
            f"{per_node_s:.2f} timer dispatches per live node-second in a "
            "quiet view, departed kernels included")


class TestDegradingChannel:
    def test_fec_crossover_and_back(self):
        result = run_scenario(degrading_channel_fec(), seed=5)
        stacks = result.stacks_of("mobile-0")
        assert any("fec" in stack for stack in stacks), \
            "degraded channel must deploy the FEC stack"
        assert "fec" not in stacks[-1], \
            "cleared channel must restore the ARQ stack"
        assert len(result.texts["fixed-0"]) == 200


class TestPartitionHeal:
    def test_sides_merge_after_heal(self):
        result = run_scenario(partition_heal(), seed=5)
        everyone = ("fixed-0", "fixed-1", "mobile-0", "mobile-1")
        for node_id, view in result.control_views.items():
            assert view == everyone, node_id

    def test_post_merge_traffic_reaches_far_side(self):
        result = run_scenario(partition_heal(), seed=5)
        full = result.texts["fixed-0"]
        assert len(full) == 130
        # The mobiles missed the partition window but share the tail.
        tail = result.texts["mobile-0"]
        assert tail and tail[-20:] == full[-20:]


@pytest.mark.slow
class TestFullSweep:
    """Long multi-seed sweep across every canned scenario (excluded from
    the tier-1 gate by the ``slow`` marker; run with ``-m slow``)."""

    @pytest.mark.parametrize("name", sorted(CANNED))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scenario_completes_and_replays(self, name, seed):
        first = run_scenario(canned(name), seed=seed)
        second = run_scenario(canned(name), seed=seed)
        assert first == second
        assert first.reconfiguration_count() >= 1


@pytest.mark.parametrize("name", sorted(CANNED))
class TestCannedUnderTheFuzzOracle:
    """Each canned scenario keeps the invariants every fuzzed run is held
    to, and replays bit-identically on the reference heap engine."""

    def test_the_always_on_invariants_hold(self, name):
        # A violated invariant raises InvariantViolation naming it.
        result = run_scenario(canned(name), seed=1, invariants=ALWAYS_ON)
        assert result.delivered_packets > 0

    def test_the_heap_engine_agrees(self, name):
        wheel = run_scenario(canned(name), seed=1)
        heap = run_scenario(canned(name), seed=1,
                            engine_factory=HeapSimEngine)
        assert wheel == heap


class TestEventsOnDepartedNodes:
    def test_event_targeting_departed_node_is_skipped_not_fatal(self):
        """validate() cannot see schedule ordering, so an event landing
        after its target's Leave must be tolerated (and traced), not crash
        the run with a KeyError."""
        from repro.scenarios.scenario import (ChatBurst, Crash, Handoff,
                                              Leave, NodeSpec, Scenario)
        scenario = Scenario(
            name="departed_target",
            duration_s=30.0,
            nodes=(NodeSpec("a", "fixed"), NodeSpec("b", "fixed"),
                   NodeSpec("c", "fixed")),
            events=(Leave(8.0, node="c", depart_after=2.0),
                    Handoff(15.0, node="c", to="mobile"),
                    Crash(16.0, node="c")),
            workload=(ChatBurst(start=1.0, sender="a", count=20,
                                interval=0.5),),
        )
        result = run_scenario(scenario, seed=11)
        assert any("skipped handoff c (departed)" in line
                   for line in result.trace)
        assert any("skipped crash c (departed)" in line
                   for line in result.trace)
        assert len(result.texts["a"]) == 20  # the run itself completed

    def test_event_before_targets_join_is_traced_as_not_joined(self):
        from repro.scenarios.scenario import (ChatBurst, Crash, NodeSpec,
                                              Scenario)
        scenario = Scenario(
            name="early_target",
            duration_s=30.0,
            nodes=(NodeSpec("a", "fixed"), NodeSpec("b", "fixed"),
                   NodeSpec("x", "mobile", join_at=20.0)),
            events=(Crash(10.0, node="x"),),  # fires before x exists
            workload=(ChatBurst(start=1.0, sender="a", count=10,
                                interval=0.5),),
        )
        result = run_scenario(scenario, seed=11)
        assert any("skipped crash x (not joined yet)" in line
                   for line in result.trace)
        assert len(result.texts["a"]) == 10
