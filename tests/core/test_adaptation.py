"""End-to-end Morpheus adaptation: the paper's §4 scenario in miniature.

Hybrid group starts on the plain stack; Cocaditem disseminates device
types; Core's coordinator detects the hybrid scenario and reconfigures the
data channels to Mecho — transparently to the chat application.
"""

from __future__ import annotations

import pytest

from repro.core import build_morpheus_group, build_plain_group
from repro.simnet import Network, SimEngine

FAST = dict(publish_interval=1.0, evaluate_interval=1.0,
            heartbeat_interval=2.0)


def hybrid_network(num_mobile: int = 2):
    engine = SimEngine()
    network = Network(engine)
    network.add_fixed_node("fixed-0")
    for index in range(num_mobile):
        network.add_mobile_node(f"mobile-{index}")
    return engine, network


class TestAutomaticAdaptation:
    def test_reconfigures_to_mecho_in_hybrid_scenario(self):
        engine, network = hybrid_network()
        nodes = build_morpheus_group(network, **FAST)
        engine.run_until(20.0)
        for node_id, morpheus in nodes.items():
            assert morpheus.deployed_configuration() == "data"  # template name
            stack = morpheus.current_stack()
            assert "mecho" in stack, (node_id, stack)
            assert "beb" not in stack

    def test_mecho_modes_match_device_kinds(self):
        engine, network = hybrid_network()
        nodes = build_morpheus_group(network, **FAST)
        engine.run_until(20.0)
        fixed_mecho = nodes["fixed-0"].local_module.data_channel \
            .session_named("mecho")
        mobile_mecho = nodes["mobile-0"].local_module.data_channel \
            .session_named("mecho")
        assert fixed_mecho.mode == "wired"
        assert mobile_mecho.mode == "wireless"
        assert mobile_mecho.relay == "fixed-0"

    def test_coordinator_reports_deployment_complete(self):
        engine, network = hybrid_network()
        nodes = build_morpheus_group(network, **FAST)
        deployed = []
        nodes["fixed-0"].core.on_reconfigured = deployed.append
        engine.run_until(20.0)
        assert deployed == ["hybrid:relay=fixed-0"]
        assert nodes["fixed-0"].core.reconfigurations_completed == 1

    def test_homogeneous_group_stays_plain(self):
        engine = SimEngine()
        network = Network(engine)
        for index in range(3):
            network.add_fixed_node(f"fixed-{index}")
        nodes = build_morpheus_group(network, **FAST)
        engine.run_until(20.0)
        for morpheus in nodes.values():
            assert "beb" in morpheus.current_stack()
            assert morpheus.core.reconfigurations_completed == 0

    def test_no_spurious_repeat_reconfiguration(self):
        engine, network = hybrid_network()
        nodes = build_morpheus_group(network, **FAST)
        engine.run_until(40.0)
        for morpheus in nodes.values():
            # Initial deploy + exactly one adaptation.
            assert morpheus.local_module.deploy_count == 2


class TestRelayFailure:
    def test_relay_crash_heals_and_reverts_to_plain(self):
        """Adapt → relay dies → FD fallback → exclusion → re-adapt to plain.

        Regression test for two real bugs: (a) a dead relay silencing the
        very flush that would remove it (fixed by suspect-triggered direct
        fan-out in Mecho) and (b) a successor Core coordinator reusing
        config ids its members had already applied.
        """
        engine, network = hybrid_network(num_mobile=3)
        nodes = build_morpheus_group(network, **dict(FAST, heartbeat_interval=1.0))
        engine.run_until(15.0)  # adapted to Mecho
        assert "mecho" in nodes["mobile-0"].current_stack()
        network.crash_node("fixed-0")
        for index in range(8):
            engine.call_at(16.0 + index,
                           lambda i=index: nodes["mobile-1"].send(f"pc-{i}"))
        engine.run_until(70.0)
        survivors = [nodes[f"mobile-{i}"] for i in range(3)]
        for morpheus in survivors:
            assert "beb" in morpheus.current_stack(), morpheus.node_id
            texts = [t for t in morpheus.chat.texts() if t.startswith("pc-")]
            assert texts == [f"pc-{i}" for i in range(8)], morpheus.node_id
            membership = morpheus.local_module.data_channel \
                .session_named("membership")
            assert membership.view.members == (
                "mobile-0", "mobile-1", "mobile-2")

    def test_mecho_falls_back_when_relay_suspected(self):
        engine, network = hybrid_network(num_mobile=2)
        nodes = build_morpheus_group(network, **dict(FAST, heartbeat_interval=0.5))
        engine.run_until(15.0)
        network.crash_node("fixed-0")
        engine.run_until(20.0)  # suspicion propagates
        mecho = nodes["mobile-0"].local_module.data_channel \
            .session_named("mecho")
        if mecho is not None:  # may already have re-adapted to plain
            assert "fixed-0" in mecho.suspected or mecho is None


class TestTransparencyToApplication:
    def test_messages_sent_before_during_after_all_delivered(self):
        engine, network = hybrid_network()
        nodes = build_morpheus_group(network, **FAST)
        sender = nodes["mobile-0"]
        expected = []
        # Before the adaptation (plain stack).
        engine.run_until(0.5)
        for index in range(5):
            sender.send(f"before-{index}")
            expected.append(f"before-{index}")
        # Ride through the adaptation window.
        for step in range(30):
            engine.run_until(0.5 + (step + 1) * 0.5)
            sender.send(f"during-{step}")
            expected.append(f"during-{step}")
        engine.run_until(30.0)
        for index in range(5):
            sender.send(f"after-{index}")
            expected.append(f"after-{index}")
        engine.run_until(40.0)
        for node_id, morpheus in nodes.items():
            assert morpheus.chat.texts() == expected, node_id

    def test_chat_sender_attribution_survives_relay(self):
        engine, network = hybrid_network()
        nodes = build_morpheus_group(network, **FAST)
        engine.run_until(20.0)  # adapted to Mecho
        nodes["mobile-1"].send("hello-via-relay")
        engine.run_until(25.0)
        delivery = nodes["mobile-0"].chat.history[-1]
        assert delivery.text == "hello-via-relay"
        assert delivery.source == "mobile-1"


class TestAdaptationPayoff:
    def test_mobile_sends_collapse_after_adaptation(self):
        """The Figure 3 effect, in miniature."""
        num_mobile, sends = 3, 20

        engine, network = hybrid_network(num_mobile=num_mobile)
        nodes = build_morpheus_group(network, **FAST)
        engine.run_until(20.0)  # adapted
        network.reset_stats()
        for index in range(sends):
            nodes["mobile-0"].send(f"m-{index}")
        engine.run_until(25.0)
        adaptive_data = network.stats_of("mobile-0").sent_data

        engine2 = SimEngine()
        network2 = Network(engine2)
        network2.add_fixed_node("fixed-0")
        for index in range(num_mobile):
            network2.add_mobile_node(f"mobile-{index}")
        baseline = build_plain_group(network2)
        engine2.run_until(1.0)
        network2.reset_stats()
        for index in range(sends):
            baseline["mobile-0"].send(f"m-{index}")
        engine2.run_until(6.0)
        baseline_data = network2.stats_of("mobile-0").sent_data

        assert adaptive_data == sends
        assert baseline_data == sends * num_mobile  # n-1 unicasts each
