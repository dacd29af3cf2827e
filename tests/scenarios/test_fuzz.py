"""Scenario fuzzer: generator validity/determinism, invariants, shrinker."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.core.rules import rule_names
from repro.kernel.channel import ChannelState
from repro.scenarios.fuzz import (MIXES, check_counters, check_delivery,
                                  check_flush_liveness,
                                  check_view_agreement, final_components,
                                  fuzz_oracle, generate_scenario,
                                  run_seed_for, scenario_from_dict,
                                  scenario_to_dict)
from repro.scenarios.scenario import (ChatBurst, Crash, Handoff, Heal,
                                      NodeSpec, Partition, Recover, Scenario)
from repro.scenarios.shrink import (shrink_scenario, violation_categories)


class TestGenerator:
    def test_same_triple_yields_identical_scenarios(self):
        assert generate_scenario(5, 3) == generate_scenario(5, 3)
        assert run_seed_for(5, 3) == run_seed_for(5, 3)

    def test_different_indices_yield_different_scenarios(self):
        drawn = {generate_scenario(5, index) for index in range(8)}
        assert len(drawn) == 8

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_generated_scenarios_are_valid(self, mix):
        for index in range(12):
            scenario = generate_scenario(11, index, mix=mix)
            scenario.validate()  # raises on any structural inconsistency
            assert scenario.workload, "every run must carry some traffic"

    def test_anchor_sender_survives_every_schedule(self):
        """The first burst's sender is never crashed or removed."""
        for index in range(12):
            scenario = generate_scenario(2, index)
            anchor = scenario.workload[0].sender
            for event in scenario.events:
                if getattr(event, "node", None) == anchor:
                    assert isinstance(event, (Handoff, Recover)), event

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_roundtrip_through_corpus_shape(self, mix):
        for index in range(6):
            scenario = generate_scenario(4, index, mix=mix)
            assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_policy_fuzz_draws_valid_rule_sets(self):
        config = dataclasses.replace(MIXES["uniform"], rules_p=1.0)
        drew_governor = False
        for index in range(12):
            scenario = generate_scenario(9, index, config=config)
            scenario.validate()
            assert scenario.rules, "rules_p=1.0 must draw a rule set"
            for name, _params in scenario.rules:
                assert name in rule_names()
            # The tail always produces a plan — an abstaining rule set
            # would leave a governed coordinator without a decision path.
            assert scenario.rules[-1][0] in ("hybrid_mecho", "plain")
            drew_governor = drew_governor or bool(scenario.governor)
            assert scenario_from_dict(scenario_to_dict(scenario)) == scenario
        assert drew_governor, "half the draws should be governed"

    def test_battery_nodes_dock_a_full_tail_before_the_end(self):
        """A battery that ran out in the settle tail left the group no
        time to converge (``12-155 --policy-fuzz``: a death 4.9 s before
        the end failed view agreement).  Every battery node now docks at
        the horizon, so the last possible death is a full tail early."""
        config = dataclasses.replace(MIXES["uniform"], rules_p=1.0)
        scenario = generate_scenario(12, 155, config=config)
        docks = [event for event in scenario.events
                 if isinstance(event, Handoff) and
                 event.at == scenario.events[-1].at]
        assert {event.node for event in docks} == \
            {spec.node_id for spec in scenario.nodes
             if spec.battery_mj is not None}
        assert docks and all(event.to == "fixed" for event in docks)
        assert scenario.duration_s - docks[0].at >= config.settle_s - 1e-9
        assert fuzz_oracle(scenario, run_seed_for(12, 155)) == []

    def test_rules_p_zero_keeps_streams_untouched(self):
        """Pre-rules corpus entries must regenerate byte-identically."""
        explicit = dataclasses.replace(MIXES["uniform"], rules_p=0.0)
        assert generate_scenario(5, 3, config=explicit) == \
            generate_scenario(5, 3)

    def test_policy_fuzz_oracle_green_on_small_run(self):
        config = dataclasses.replace(
            MIXES["uniform"], rules_p=1.0, min_nodes=3, max_nodes=3,
            min_events=1, max_events=2, event_window_s=10.0, settle_s=40.0)
        scenario = generate_scenario(21, 0, config=config)
        assert scenario.rules
        assert fuzz_oracle(scenario, run_seed_for(21, 0)) == []


class TestLoadingFailsLoudly:
    """Every part of a scenario file is checked against the shape this
    code runs; the multi-cell files written before the shape lost its
    cells are the case in point."""

    def test_every_unknown_key_is_named(self):
        data = scenario_to_dict(generate_scenario(4, 0))
        data.update(cells=2, reconcile=True)
        with pytest.raises(ValueError, match=r"\['cells', 'reconcile'\]"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("cells", 1), ("cell_size_max", 0), ("cell_size_min", 2),
        ("backlog_n", 5), ("reconcile", False)])
    def test_a_cell_key_fails_loudly(self, key, value):
        data = scenario_to_dict(generate_scenario(4, 0))
        data[key] = value
        with pytest.raises(ValueError, match=rf"unknown keys \['{key}'\]"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("kind", ["SplitCell", "MergeCell"])
    def test_a_cell_event_fails_loudly(self, kind):
        data = scenario_to_dict(generate_scenario(4, 0))
        data["events"].append({"type": kind, "at": 5.0, "cell": "",
                               "into": ""})
        with pytest.raises(ValueError, match=f"unknown event type '{kind}'"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("where", ["node", "event", "burst", "link"])
    def test_an_unknown_nested_key_fails_loudly(self, where):
        data = scenario_to_dict(Scenario(
            name="nested", duration_s=30.0,
            nodes=(NodeSpec("a"), NodeSpec("b")),
            events=(Crash(10.0, node="b"),),
            workload=(ChatBurst(start=1.0, sender="a", count=1),)))
        assert scenario_from_dict(data).name == "nested"
        part = {"node": data["nodes"][0], "event": data["events"][0],
                "burst": data["workload"][0], "link": data["wired"]}[where]
        part["cell"] = "cell-1"
        with pytest.raises(ValueError, match=r"unknown keys \['cell'\]"):
            scenario_from_dict(data)


class TestFinalComponents:
    def _scenario(self, events) -> Scenario:
        return Scenario(
            name="components", duration_s=60.0,
            nodes=(NodeSpec("a"), NodeSpec("b"), NodeSpec("c")),
            events=events,
            workload=(ChatBurst(start=1.0, sender="a", count=1),))

    def test_unpartitioned_run_is_one_component(self):
        assert final_components(self._scenario(())) == [{"a", "b", "c"}]

    def test_last_partition_wins(self):
        scenario = self._scenario((
            Partition(10.0, groups=(("a",), ("b", "c"))),
            Heal(20.0),
            Partition(30.0, groups=(("a", "b"), ("c",)))))
        assert final_components(scenario) == [{"a", "b"}, {"c"}]

    def test_heal_restores_one_component(self):
        scenario = self._scenario((
            Partition(10.0, groups=(("a",), ("b", "c"))), Heal(20.0)))
        assert final_components(scenario) == [{"a", "b", "c"}]

    def test_uncovered_nodes_become_islands(self):
        scenario = self._scenario((
            Partition(10.0, groups=(("a",), ("b",))),))
        assert {"c"} in final_components(scenario)


def _runner_with_histories(histories: dict) -> SimpleNamespace:
    morpheus = {
        node_id: SimpleNamespace(chat=SimpleNamespace(history=[
            SimpleNamespace(source=source, text=text)
            for source, text in deliveries]))
        for node_id, deliveries in histories.items()}
    scenario = SimpleNamespace(ordering=())
    return SimpleNamespace(morpheus=morpheus, scenario=scenario)


class TestDeliveryInvariant:
    def test_clean_history_passes(self):
        runner = _runner_with_histories({
            "a": [("a", "b0-0"), ("a", "b0-1"), ("b", "b1-0")],
            "b": [("a", "b0-0"), ("a", "b0-1")]})
        assert check_delivery(runner, None) == []

    def test_duplicate_delivery_is_flagged(self):
        runner = _runner_with_histories({
            "a": [("b", "b0-3"), ("b", "b0-3")]})
        violations = check_delivery(runner, None)
        assert len(violations) == 1
        assert violations[0].startswith("delivery-dup")

    def test_reordered_delivery_is_flagged(self):
        runner = _runner_with_histories({
            "a": [("b", "b0-3"), ("b", "b0-1")]})
        violations = check_delivery(runner, None)
        assert len(violations) == 1
        assert violations[0].startswith("delivery-order")

    def test_gaps_are_allowed(self):
        # Messages may be lost across view changes; FIFO only forbids
        # going backwards, not holes.
        runner = _runner_with_histories({
            "a": [("b", "b0-0"), ("b", "b0-7"), ("b", "b0-9")]})
        assert check_delivery(runner, None) == []


    def test_total_order_agreement_passes(self):
        runner = _runner_with_histories({
            "a": [("a", "x-0"), ("b", "y-0"), ("a", "x-1")],
            "b": [("a", "x-0"), ("b", "y-0")]})
        runner.scenario.ordering = ("total",)
        assert check_delivery(runner, None) == []

    def test_total_order_disagreement_is_flagged(self):
        runner = _runner_with_histories({
            "a": [("a", "x-0"), ("b", "y-0")],
            "b": [("b", "y-0"), ("a", "x-0")]})
        assert check_delivery(runner, None) == []  # no total order asked
        runner.scenario.ordering = ("total",)
        assert check_delivery(runner, None) == [
            "total-order: a and b disagree on the relative order of "
            "commonly delivered messages"]


def _runner_with_views(scenario: Scenario, views: dict,
                       dead: tuple = ()) -> tuple:
    """A runner and result whose nodes end in the given control views
    (``None``: the node never entered a view)."""
    morpheus = {
        node_id: SimpleNamespace(control_channel=SimpleNamespace(
            session_named=lambda _, view=view: SimpleNamespace(view=view)))
        for node_id, view in views.items()}
    nodes = {node_id: SimpleNamespace(alive=node_id not in dead)
             for node_id in views}
    runner = SimpleNamespace(morpheus=morpheus, scenario=scenario,
                             network=SimpleNamespace(nodes=nodes))
    result = SimpleNamespace(control_views={
        node_id: tuple(view) for node_id, view in views.items()
        if view is not None})
    return runner, result


class TestViewAgreementInvariant:
    def _scenario(self, events=()) -> Scenario:
        return Scenario(
            name="views", duration_s=60.0,
            nodes=(NodeSpec("a"), NodeSpec("b"), NodeSpec("c"),
                   NodeSpec("d", join_at=5.0)),
            events=events,
            workload=(ChatBurst(start=1.0, sender="a", count=1),))

    def test_agreeing_survivors_pass(self):
        everyone = ("a", "b", "c", "d")
        runner, result = _runner_with_views(
            self._scenario(), {node: everyone for node in everyone})
        assert check_view_agreement(runner, result) == []

    def test_a_stale_view_is_flagged(self):
        everyone = ("a", "b", "c", "d")
        views = {node: everyone for node in everyone}
        views["c"] = ("a", "b", "c")
        runner, result = _runner_with_views(self._scenario(), views)
        assert check_view_agreement(runner, result) == [
            "view-agreement: c ended with control view ('a', 'b', 'c'), "
            "expected ('a', 'b', 'c', 'd')"]

    def test_a_dead_node_is_neither_judged_nor_expected(self):
        views = {"a": ("a", "b", "d"), "b": ("a", "b", "d"),
                 "c": ("a", "b", "c", "d"), "d": ("a", "b", "d")}
        runner, result = _runner_with_views(self._scenario(), views,
                                            dead=("c",))
        assert check_view_agreement(runner, result) == []

    def test_each_component_agrees_on_its_own_survivors(self):
        scenario = self._scenario((
            Partition(20.0, groups=(("a", "b"), ("c", "d"))),))
        views = {"a": ("a", "b"), "b": ("a", "b"),
                 "c": ("c", "d"), "d": ("a", "b", "c", "d")}
        runner, result = _runner_with_views(scenario, views)
        assert check_view_agreement(runner, result) == [
            "view-agreement: d ended with control view "
            "('a', 'b', 'c', 'd'), expected ('c', 'd')"]

    def test_an_unadmitted_joiner_beside_members_is_flagged(self):
        views = {"a": ("a", "b", "c"), "b": ("a", "b", "c"),
                 "c": ("a", "b", "c"), "d": None}
        runner, result = _runner_with_views(self._scenario(), views)
        assert check_view_agreement(runner, result) == [
            "join-liveness: d was never admitted although its component "
            "has established members ('a', 'b', 'c')"]

    def test_a_joiner_alone_in_its_component_is_not_judged(self):
        scenario = self._scenario((
            Partition(2.0, groups=(("a", "b", "c"), ("d",))),))
        views = {"a": ("a", "b", "c"), "b": ("a", "b", "c"),
                 "c": ("a", "b", "c"), "d": None}
        runner, result = _runner_with_views(scenario, views)
        assert check_view_agreement(runner, result) == []


class TestCountersInvariant:
    def _result(self, delivered, lost, stats) -> SimpleNamespace:
        return SimpleNamespace(
            delivered_packets=delivered, lost_packets=lost,
            stats={node: {"sent_total": sent, "recv_total": recv}
                   for node, (sent, recv) in stats.items()})

    def test_balanced_accounting_passes(self):
        result = self._result(5, 1, {"a": (4, 2), "b": (2, 3)})
        assert check_counters(None, result) == []

    def test_a_receive_the_network_never_delivered_is_flagged(self):
        result = self._result(5, 1, {"a": (4, 3), "b": (2, 3)})
        assert check_counters(None, result) == [
            "counter: per-NIC receive total 6 != network "
            "delivered_packets 5"]

    def test_more_outcomes_than_sends_are_flagged(self):
        result = self._result(5, 2, {"a": (4, 2), "b": (2, 3)})
        assert check_counters(None, result) == [
            "counter: 7 packets delivered+lost but only 6 ever sent"]


def _runner_with_phases(phases: dict, dead: tuple = ()) -> SimpleNamespace:
    """Nodes whose control and data memberships sit in the given phases."""
    def channel(name, phase):
        membership = SimpleNamespace(phase=SimpleNamespace(value=phase))
        return SimpleNamespace(name=name, state=ChannelState.STARTED,
                               session_named=lambda _: membership)

    morpheus = {
        node_id: SimpleNamespace(
            control_channel=channel("ctrl", ctrl),
            local_module=SimpleNamespace(data_channel=channel("data", data)))
        for node_id, (ctrl, data) in phases.items()}
    nodes = {node_id: SimpleNamespace(alive=node_id not in dead)
             for node_id in phases}
    return SimpleNamespace(morpheus=morpheus,
                           network=SimpleNamespace(nodes=nodes))


class TestFlushLivenessInvariant:
    def test_stable_everywhere_passes(self):
        runner = _runner_with_phases({"a": ("stable", "stable"),
                                      "b": ("stable", "stable")})
        assert check_flush_liveness(runner, None) == []

    def test_a_hold_never_released_is_flagged(self):
        runner = _runner_with_phases({"a": ("stable", "stable"),
                                      "b": ("stable", "held")})
        assert check_flush_liveness(runner, None) == [
            "flush-liveness: b ended with its data membership held"]

    def test_a_dead_node_is_not_judged(self):
        runner = _runner_with_phases({"a": ("stable", "stable"),
                                      "b": ("await-cut", "held")},
                                     dead=("b",))
        assert check_flush_liveness(runner, None) == []


class TestOracleAndShrinker:
    def test_oracle_green_on_small_generated_run(self):
        scenario = generate_scenario(7, 2)  # 3 nodes, short
        assert fuzz_oracle(scenario, run_seed_for(7, 2)) == []

    def test_shrinker_minimizes_against_synthetic_oracle(self):
        """No simulation: the oracle fails iff a Crash of node x is in the
        schedule — the shrinker must strip everything else."""
        scenario = Scenario(
            name="synthetic", duration_s=80.0,
            nodes=(NodeSpec("x"), NodeSpec("y"), NodeSpec("z")),
            events=(Handoff(5.0, node="y", to="mobile"),
                    Crash(10.0, node="x"),
                    Partition(15.0, groups=(("x",), ("y", "z"))),
                    Heal(20.0),
                    Crash(25.0, node="y"),
                    Recover(30.0, node="y")),
            workload=(ChatBurst(start=1.0, sender="y", count=30,
                                prefix="b0"),
                      ChatBurst(start=2.0, sender="z", count=30,
                                prefix="b1")))

        def oracle(candidate: Scenario) -> list:
            crashes_x = any(isinstance(event, Crash) and event.node == "x"
                            for event in candidate.events)
            return ["synthetic-fail: x crashed"] if crashes_x else []

        outcome = shrink_scenario(scenario, run_seed=0,
                                  violations=oracle(scenario),
                                  oracle=oracle)
        assert [type(e).__name__ for e in outcome.scenario.events] == \
            ["Crash"]
        assert outcome.scenario.events[0].node == "x"
        # The workload is irrelevant to this failure and shrinks away
        # entirely; unrelated nodes are dropped (x stays: the failing
        # event needs it).
        assert outcome.scenario.workload == ()
        node_ids = {spec.node_id for spec in outcome.scenario.nodes}
        assert "x" in node_ids and len(node_ids) <= 2

    def test_shrinker_keeps_failure_category(self):
        """A candidate failing with a *different* category does not count
        as still-failing."""
        base = generate_scenario(7, 2)

        def oracle(candidate: Scenario) -> list:
            if len(candidate.events) == len(base.events):
                return ["cat-a: full schedule"]
            return ["cat-b: different failure"]

        outcome = shrink_scenario(base, run_seed=0,
                                  violations=["cat-a: full schedule"],
                                  oracle=oracle)
        # Every reduction flips the category, so nothing may be removed.
        assert outcome.scenario.events == base.events

    def test_violation_categories(self):
        assert violation_categories(
            ["view-agreement: x", "delivery-dup: y", "view-agreement: z"]) \
            == {"view-agreement", "delivery-dup"}
