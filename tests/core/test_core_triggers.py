"""Core evaluates on arrival: what triggers a policy decision, and what not.

The coordinator subscribes to the context topics its rules read; a sample
that changes a value it has seen arms one evaluation for the instant.  A
control view change, a stranded ``config_query`` and a trigger left over
when a reconfiguration completes arm it too, and the periodic tick only
retries a trigger the policy could not act on.
"""

from __future__ import annotations

import pytest

from repro.context import (MEMORY, CallableRetriever, DeviceTypeRetriever,
                           LinkQualityRetriever)
from repro.core import (AdaptationGovernor, GovernorConfig, MorpheusNode,
                        PolicyEngine, build_morpheus_group, register_rule)
from repro.core.rules import HybridMechoRule
from repro.kernel.errors import ConfigurationError
from repro.simnet import Network, NodeKind, SimEngine

MEMBERS = ("n0", "n1", "n2", "n3")


def _group(policy=None, evaluate_interval=2.0, retrievers=None):
    engine = SimEngine()
    network = Network(engine)
    for node_id in MEMBERS:
        network.add_fixed_node(node_id)
    options = dict(publish_interval=1.0, evaluate_interval=evaluate_interval,
                   heartbeat_interval=1.0)
    if retrievers is not None:
        options["retrievers"] = retrievers
    if policy is not None:
        options["policy"] = policy
    nodes = build_morpheus_group(network, **options)
    return engine, network, nodes


def _record_decisions(engine, node):
    """Wrap ``node``'s policy: every ``decide`` call, with its time and
    result, lands in the returned list."""
    calls = []
    policy = node.core.policy
    decide = policy.decide

    def recording(directory, members, now, group):
        plan = decide(directory, members, now=now, group=group)
        calls.append((engine.now(), plan.name if plan else None))
        return plan
    policy.decide = recording
    return calls


def _record_starts(engine, node):
    starts = []
    start = node.core._start_reconfiguration

    def recording(plan, channel):
        starts.append((engine.now(), plan.name))
        start(plan, channel)
    node.core._start_reconfiguration = recording
    return starts


class TestSnapshotTriggers:
    def test_an_unchanged_snapshot_makes_no_decision(self):
        engine, network, nodes = _group()
        calls = _record_decisions(engine, nodes["n0"])
        engine.run_until(5.0)
        settled = len(calls)
        assert settled >= 1
        engine.run_until(30.0)  # 25 more snapshots from every member
        assert len(calls) == settled

    def test_a_changed_attribute_a_rule_reads_decides_once(self):
        engine, network, nodes = _group(evaluate_interval=60.0)
        calls = _record_decisions(engine, nodes["n0"])
        engine.run_until(5.0)
        before = len(calls)
        network.move_node("n3", NodeKind.MOBILE)
        engine.run_until(10.0)
        after = calls[before:]
        # Every node republishes on the topology change; only n3's
        # device type changed, so one decision, within milliseconds.
        assert len(after) == 1
        at, name = after[0]
        assert 5.0 < at < 5.05
        assert name == "hybrid:relay=n0"
        assert nodes["n0"].core.deployed_name == "hybrid:relay=n0"

    def test_a_changed_attribute_no_rule_reads_makes_no_decision(self):
        memory = {node_id: 512 for node_id in MEMBERS}
        retrievers = [DeviceTypeRetriever(), LinkQualityRetriever(),
                      CallableRetriever(MEMORY,
                                        lambda node: memory[node.node_id])]
        engine, network, nodes = _group(retrievers=retrievers)
        calls = _record_decisions(engine, nodes["n0"])
        engine.run_until(5.0)
        settled = len(calls)
        memory["n2"] = 64
        nodes["n2"].cocaditem.publish_now()
        engine.run_until(20.0)
        assert nodes["n0"].directory.value("n2", MEMORY) == 64
        assert len(calls) == settled

    def test_non_coordinators_never_decide(self):
        engine, network, nodes = _group()
        calls = {node_id: _record_decisions(engine, nodes[node_id])
                 for node_id in MEMBERS}
        engine.run_until(5.0)
        network.move_node("n3", NodeKind.MOBILE)
        engine.run_until(15.0)
        network.move_node("n3", NodeKind.FIXED)
        engine.run_until(25.0)
        assert calls["n0"]
        assert nodes["n0"].core.reconfigurations_completed >= 2
        for node_id in ("n1", "n2", "n3"):
            assert calls[node_id] == []


class TestOutstandingTriggers:
    def test_a_vetoed_plan_is_admitted_by_the_tick_after_its_cooldown(self):
        # One plan change per 10 s window; exhausting it freezes changes
        # for 10 s.  The initial plain plan spends the budget at t ~ 0.
        governor = AdaptationGovernor(GovernorConfig(
            budget=1, window=10.0, cooldown=10.0))
        engine = SimEngine()
        network = Network(engine)
        for node_id in MEMBERS:
            network.add_fixed_node(node_id)
        nodes = {node_id: MorpheusNode(
                     network, node_id, MEMBERS,
                     policy=PolicyEngine((HybridMechoRule(),),
                                         governor=governor),
                     publish_interval=1.0, evaluate_interval=2.0,
                     heartbeat_interval=1.0)
                 for node_id in MEMBERS}
        calls = _record_decisions(engine, nodes["n0"])
        starts = _record_starts(engine, nodes["n0"])
        engine.run_until(5.0)
        network.move_node("n3", NodeKind.MOBILE)
        engine.run_until(40.0)
        vetoed = [at for at, name in calls if 5.0 < at and name is None]
        admitted = [at for at, name in calls if 5.0 < at and name]
        # Vetoed at the handoff (frozen until ~15 s), retried on every
        # 2 s tick meanwhile, admitted by the first tick past the freeze.
        assert vetoed[0] < 5.05
        assert all(at == pytest.approx(round(at)) for at in vetoed[1:])
        assert admitted[0] == pytest.approx(16.0)
        assert starts[-1] == (admitted[0], "hybrid:relay=n0")
        # The trigger is spent: no decision after the admitted one.
        assert len(admitted) == 1
        assert calls[-1][0] == admitted[0]

    def test_a_trigger_during_a_plan_is_evaluated_when_it_completes(self):
        engine, network, nodes = _group(evaluate_interval=60.0)
        core = nodes["n0"].core
        calls = _record_decisions(engine, nodes["n0"])
        starts = _record_starts(engine, nodes["n0"])
        completions = []
        core.on_reconfigured = \
            lambda name: completions.append((engine.now(), name))
        engine.run_until(5.0)
        network.move_node("n3", NodeKind.MOBILE)
        while not starts:
            engine.run_until(engine.now() + 0.0005)
        # The relay's own handoff arrives while the first plan runs.
        network.move_node("n0", NodeKind.MOBILE)
        engine.run_until(engine.now() + 0.002)
        assert core._active_plan is not None
        assert core._dirty
        engine.run_until(20.0)
        first_done = [at for at, name in calls if name == "hybrid:relay=n0"]
        assert len(first_done) == 1
        relay_change = [at for at, name in calls if name == "hybrid:relay=n1"]
        assert len(relay_change) == 1
        assert [name for _, name in starts] == ["hybrid:relay=n0",
                                                "hybrid:relay=n1"]
        # Decided in the instant the first plan completed, not before.
        assert completions[0] == (relay_change[0], "hybrid:relay=n0")
        assert starts[1][0] == relay_change[0]
        assert completions[-1][1] == "hybrid:relay=n1"
        assert core.deployed_name == "hybrid:relay=n1"


class TestDeclaredReads:
    def test_a_rule_without_a_declaration_is_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="undeclared_reads"):
            @register_rule
            class Undeclared:
                rule_name = "undeclared_reads"

                def evaluate(self, ctx):
                    return None

    def test_an_engine_reads_what_its_rules_read(self):
        engine = PolicyEngine((HybridMechoRule(),
                               HybridMechoRule(relay_selector="best_battery")))
        assert engine.reads == {"device_type", "battery"}
        assert PolicyEngine((HybridMechoRule(),)).reads == {"device_type"}
