"""Cocaditem: retrievers, snapshots and distributed dissemination."""

from __future__ import annotations

import random

import pytest

from repro.context import (BATTERY, DEVICE_TYPE, LINK_QUALITY,
                           BatteryRetriever, CallableRetriever,
                           ContextSnapshot, DeviceTypeRetriever,
                           LinkQualityRetriever, MemoryRetriever, TopicBus,
                           default_retrievers, topic_for)
from repro.core import ContextDirectory, MorpheusNode, build_morpheus_group
from repro.simnet import (Battery, BernoulliLoss, Network, NodeKind,
                          SimEngine)
from repro.simnet.network import default_wireless
from repro.simnet.trace import PacketTrace


@pytest.fixture
def hybrid():
    engine = SimEngine()
    network = Network(engine)
    network.add_fixed_node("fixed-0")
    network.add_mobile_node("mobile-0",
                            battery=Battery(capacity_mj=1000.0))
    return engine, network


class TestRetrievers:
    def test_device_type(self, hybrid):
        engine, network = hybrid
        retriever = DeviceTypeRetriever()
        assert retriever.sample(network.node("fixed-0")) == "fixed"
        assert retriever.sample(network.node("mobile-0")) == "mobile"

    def test_battery_fraction(self, hybrid):
        engine, network = hybrid
        retriever = BatteryRetriever()
        assert retriever.sample(network.node("fixed-0")) == 1.0
        mobile = network.node("mobile-0")
        assert retriever.sample(mobile) == 1.0
        mobile.battery.consume_tx(100_000, 0.0)  # drain a chunk
        assert retriever.sample(mobile) < 1.0

    def test_link_quality_reflects_loss_model(self, hybrid):
        import random
        from repro.simnet import BernoulliLoss
        engine, network = hybrid
        network.wireless.loss = BernoulliLoss(0.12, random.Random(0))
        retriever = LinkQualityRetriever()
        assert retriever.sample(network.node("mobile-0")) == 0.12
        assert retriever.sample(network.node("fixed-0")) == 0.0

    def test_memory_differs_by_kind(self, hybrid):
        engine, network = hybrid
        retriever = MemoryRetriever(fixed_mib=512, mobile_mib=64)
        assert retriever.sample(network.node("fixed-0")) == 512
        assert retriever.sample(network.node("mobile-0")) == 64

    def test_callable_adapter(self, hybrid):
        engine, network = hybrid
        retriever = CallableRetriever("custom", lambda node: node.node_id)
        assert retriever.attribute == "custom"
        assert retriever.sample(network.node("fixed-0")) == "fixed-0"

    def test_default_set_covers_core_attributes(self):
        attributes = {r.attribute for r in default_retrievers()}
        assert {DEVICE_TYPE, BATTERY, LINK_QUALITY} <= attributes


class TestSnapshot:
    def test_samples_explode_sorted(self):
        snapshot = ContextSnapshot("n1", 2.0, {"b": 1, "a": 2})
        samples = snapshot.samples()
        assert [s.attribute for s in samples] == ["a", "b"]
        assert all(s.node_id == "n1" and s.time == 2.0 for s in samples)

    def test_payload_round_trip(self):
        snapshot = ContextSnapshot("n1", 3.5, {"x": 1.25})
        assert ContextSnapshot.from_payload(snapshot.to_payload()) == snapshot

    def test_topic_naming(self):
        assert topic_for("battery") == "context.battery"


def _fixed_group(*node_ids, **options):
    engine = SimEngine()
    network = Network(engine)
    for node_id in node_ids:
        network.add_fixed_node(node_id)
    return engine, network, build_morpheus_group(network, **options)


def _context_sends(trace):
    """``(time, src, dst)`` of every traced ``ContextMessage`` request."""
    return [(entry.time, entry.src, entry.dst) for entry in trace.entries
            if entry.event == "ContextMessage"]


def _arrivals(engine, morpheus):
    """Log ``(virtual time, node)`` of each device-type sample that reaches
    ``morpheus``'s bus (local samples included)."""
    log = []
    morpheus.bus.subscribe(topic_for(DEVICE_TYPE), lambda _topic, sample:
                           log.append((engine.now(), sample.node_id)))
    return log


def _views(engine, morpheus):
    """Log ``(virtual time, view, joiners)`` of each control view that
    ``morpheus``'s Cocaditem session installs."""
    log = []
    session = morpheus.cocaditem
    on_view = session.on_view

    def recording(event):
        log.append((engine.now(), event.view, event.joiners))
        on_view(event)
    session.on_view = recording
    return log


class TestDistributedDissemination:
    def test_coordinator_learns_every_nodes_context(self):
        engine = SimEngine()
        network = Network(engine)
        network.add_fixed_node("fixed-0")
        network.add_mobile_node("mobile-0")
        network.add_mobile_node("mobile-1")
        nodes = build_morpheus_group(network, publish_interval=1.0,
                                     evaluate_interval=30.0)
        engine.run_until(5.0)
        coordinator = nodes["fixed-0"].directory
        assert coordinator.value("fixed-0", DEVICE_TYPE) == "fixed"
        assert coordinator.value("mobile-0", DEVICE_TYPE) == "mobile"
        assert coordinator.value("mobile-1", DEVICE_TYPE) == "mobile"
        # Nothing is sent to a non-coordinator: it holds itself only.
        for node_id in ("mobile-0", "mobile-1"):
            directory = nodes[node_id].directory
            assert directory.value(node_id, DEVICE_TYPE) == "mobile"
            others = {"fixed-0", "mobile-0", "mobile-1"} - {node_id}
            assert not any(directory.knows(other, DEVICE_TYPE)
                           for other in others)

    def test_one_snapshot_per_tick_to_the_coordinator_only(self):
        engine, network, nodes = _fixed_group(
            "fixed-0", "fixed-1", "fixed-2", "fixed-3",
            publish_interval=1.0, evaluate_interval=30.0)
        engine.run_until(3.5)
        trace = PacketTrace(network).install()
        engine.run_until(13.5)  # ten publish ticks
        sends = _context_sends(trace)
        assert {src for _, src, _ in sends} == {"fixed-1", "fixed-2",
                                                "fixed-3"}
        for node_id in ("fixed-1", "fixed-2", "fixed-3"):
            assert [dst for _, src, dst in sends if src == node_id] == \
                ["fixed-0"] * 10
        assert nodes["fixed-0"].cocaditem.snapshots_sent == 0

    def test_failover_coordinator_learns_everyone_before_it_evaluates(self):
        members = ("fixed-0", "fixed-1", "fixed-2", "fixed-3")
        # The publish tick (60 s) stays out of the window: only the view
        # can be what brings the new coordinator the survivors' context.
        engine, network, nodes = _fixed_group(
            *members, publish_interval=60.0, evaluate_interval=2.0,
            heartbeat_interval=1.0)
        successor = nodes["fixed-1"]
        core = successor.core
        decisions = []
        decide = core.policy.decide

        def recording(directory, members, now, group):
            plan = decide(directory, members, now=now, group=group)
            if core.is_control_coordinator:
                decisions.append((engine.now(), tuple(members),
                                  directory.covers(members, DEVICE_TYPE),
                                  plan))
            return plan
        core.policy.decide = recording
        survivors = ("fixed-1", "fixed-2", "fixed-3")
        views = {node_id: _views(engine, nodes[node_id])
                 for node_id in survivors}
        engine.run_until(12.3)
        assert not successor.directory.knows("fixed-2", DEVICE_TYPE)
        trace = PacketTrace(network).install()
        network.crash_node("fixed-0")
        engine.run_until(40.0)
        failover = {}
        for node_id in survivors:
            installed = [at for at, view, _ in views[node_id]
                         if view.coordinator == "fixed-1"]
            assert installed, f"{node_id} never dropped the crashed one"
            failover[node_id] = installed[0]
        # Every survivor sends to the new coordinator on the view...
        sends = _context_sends(trace)
        for node_id in ("fixed-2", "fixed-3"):
            assert (failover[node_id], node_id, "fixed-1") in sends
        # ...so its first decision as coordinator sees every member.  The
        # view itself is a trigger: the evaluation it arms may run before
        # the snapshots land, and the policy then abstains (no plan) until
        # a snapshot's arrival triggers the informed one.
        assert decisions
        assert all(plan is None for _, _, covered, plan in decisions
                   if not covered)
        at, decided_members, covered, plan = next(
            decision for decision in decisions if decision[3] is not None)
        assert at > max(failover.values())
        assert decided_members == survivors
        assert covered

    def test_handoff_reaches_the_coordinator_within_a_round_trip(self):
        engine, network, nodes = _fixed_group(
            "fixed-0", "fixed-1", "fixed-2",
            publish_interval=30.0, evaluate_interval=60.0)
        engine.run_until(5.0)
        arrivals = _arrivals(engine, nodes["fixed-0"])
        network.move_node("fixed-2", NodeKind.MOBILE)
        engine.run_until(6.0)
        assert nodes["fixed-0"].directory.value("fixed-2", DEVICE_TYPE) == \
            "mobile"
        arrived = [at for at, node_id in arrivals if node_id == "fixed-2"]
        # One wireless hop plus one wired hop, not a 30 s publish interval.
        assert arrived and arrived[0] - 5.0 < 0.01

    @pytest.mark.parametrize("how", ["recovered", "recovered_unaware",
                                     "joined"])
    def test_admitted_node_sends_on_admission(self, how):
        members = ["fixed-0", "fixed-1", "fixed-2"]
        options = dict(publish_interval=60.0, evaluate_interval=60.0,
                       heartbeat_interval=1.0)
        if how != "joined":
            members.append("fixed-3")
        engine = SimEngine()
        network = Network(engine)
        nodes = {}
        for node_id in members:
            network.add_fixed_node(node_id)
        for node_id in members:
            node_options = dict(options)
            if node_id == "fixed-3" and how == "recovered_unaware":
                # A detector too slow to see the crash: fixed-3 keeps its
                # view and coordinator, so only the admission makes it send.
                node_options["heartbeat_interval"] = 5.0
            nodes[node_id] = MorpheusNode(network, node_id, members,
                                          **node_options)
        engine.run_until(5.3)
        if how != "joined":
            network.crash_node("fixed-3")
            engine.run_until(15.0)
            assert "fixed-3" not in nodes["fixed-0"].core.members
            newcomer = nodes["fixed-3"]
            views = _views(engine, newcomer)
            network.recover_node("fixed-3")
        else:
            network.add_fixed_node("fixed-3")
            newcomer = MorpheusNode(network, "fixed-3",
                                    members + ["fixed-3"], joining=True,
                                    **options)
            views = _views(engine, newcomer)
        arrivals = _arrivals(engine, nodes["fixed-0"])
        trace = PacketTrace(network).install()
        engine.run_until(45.0)
        admitted = [at for at, view, joiners in views
                    if "fixed-3" in joiners and view.coordinator == "fixed-0"]
        assert admitted, "fixed-3 was never admitted"
        assert any(src == "fixed-3" and dst == "fixed-0" and at == admitted[0]
                   for at, src, dst in _context_sends(trace))
        assert any(at >= admitted[0] and node_id == "fixed-3"
                   for at, node_id in arrivals)

    def test_lost_snapshots_are_repaired_by_the_next_tick(self):
        engine = SimEngine()
        network = Network(engine, wireless=default_wireless(
            BernoulliLoss(0.3, random.Random(7))))
        network.add_fixed_node("fixed-0")
        network.add_mobile_node("mobile-0")
        network.add_mobile_node("mobile-1")
        probe = {"mobile-0": "before", "mobile-1": "before"}
        retrievers = default_retrievers() + [CallableRetriever(
            "probe", lambda node: probe.get(node.node_id))]
        nodes = build_morpheus_group(network, publish_interval=1.0,
                                     evaluate_interval=60.0,
                                     retrievers=retrievers)
        directory = nodes["fixed-0"].directory
        engine.run_until(10.0)
        received = network.node("fixed-0").stats.recv_by_event
        before = received["ContextMessage"]
        sent = sum(nodes[node_id].cocaditem.snapshots_sent
                   for node_id in probe)
        probe.update({"mobile-0": "after", "mobile-1": "after"})
        engine.run_until(20.0)
        sent = sum(nodes[node_id].cocaditem.snapshots_sent
                   for node_id in probe) - sent
        assert received["ContextMessage"] - before < sent  # loss did bite
        for node_id in probe:
            assert directory.value(node_id, "probe") == "after"

    def test_battery_updates_propagate(self):
        engine = SimEngine()
        network = Network(engine)
        network.add_fixed_node("fixed-0")
        network.add_mobile_node("mobile-0",
                                battery=Battery(capacity_mj=500.0))
        nodes = build_morpheus_group(network, publish_interval=1.0,
                                     evaluate_interval=30.0)
        engine.run_until(3.0)
        first = nodes["fixed-0"].directory.value("mobile-0", BATTERY)
        # Heartbeats and context messages drain the mobile battery...
        engine.run_until(60.0)
        later = nodes["fixed-0"].directory.value("mobile-0", BATTERY)
        assert later < first


class TestContextDirectory:
    def test_covers_requires_all_members(self):
        bus = TopicBus()
        directory = ContextDirectory(bus)
        from repro.context import ContextSample
        bus.publish("context.device_type",
                    ContextSample("a", DEVICE_TYPE, "fixed", 0.0))
        assert directory.covers(["a"], DEVICE_TYPE)
        assert not directory.covers(["a", "b"], DEVICE_TYPE)

    def test_is_hybrid(self):
        from repro.context import ContextSample
        bus = TopicBus()
        directory = ContextDirectory(bus)
        bus.publish("context.device_type",
                    ContextSample("a", DEVICE_TYPE, "fixed", 0.0))
        bus.publish("context.device_type",
                    ContextSample("b", DEVICE_TYPE, "mobile", 0.0))
        assert directory.is_hybrid(["a", "b"])
        assert not directory.is_hybrid(["a"])
        assert not directory.is_hybrid(["b"])

    def test_latest_sample_wins(self):
        from repro.context import ContextSample
        bus = TopicBus()
        directory = ContextDirectory(bus)
        bus.publish("context.battery", ContextSample("a", BATTERY, 0.9, 1.0))
        bus.publish("context.battery", ContextSample("a", BATTERY, 0.4, 2.0))
        assert directory.value("a", BATTERY) == 0.4
