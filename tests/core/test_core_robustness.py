"""Core coordination under adverse conditions (loss, repeated change)."""

from __future__ import annotations

import pytest

from repro.core import build_morpheus_group
from repro.simnet import Network, SimEngine

FAST = dict(publish_interval=1.0, evaluate_interval=1.0,
            heartbeat_interval=2.0)

_FLUSH_PHASES = {"AWAIT_STATUS", "AWAIT_CUT", "REACHING_CUT",
                 "AWAIT_INSTALL"}


def _lossy_hybrid(loss: float, seed: int):
    import random
    from repro.simnet import BernoulliLoss, LinkParams
    engine = SimEngine()
    wireless = LinkParams(latency_s=0.002, bandwidth_bps=11e6,
                          loss=BernoulliLoss(loss, random.Random(seed)))
    network = Network(engine, wireless=wireless)
    network.add_fixed_node("fixed-0")
    network.add_mobile_node("mobile-0")
    network.add_mobile_node("mobile-1")
    return engine, build_morpheus_group(network, **FAST)


def _data_phases(nodes) -> set[str]:
    return {morpheus.local_module.data_channel.session_named(
        "membership").phase.name for morpheus in nodes.values()}


class TestAdaptationUnderLoss:
    @pytest.mark.parametrize("seed", [1, 5])
    def test_reconfiguration_completes_despite_wireless_loss(self, seed):
        """Every Core message can be lost; retries must converge anyway."""
        engine, nodes = _lossy_hybrid(0.15, seed)
        engine.run_until(60.0)
        for node_id, morpheus in nodes.items():
            assert "mecho" in morpheus.current_stack(), node_id
        # And the adapted group still delivers chat reliably.
        nodes["mobile-0"].send("through-loss")
        engine.run_until(90.0)
        for morpheus in nodes.values():
            assert "through-loss" in morpheus.chat.texts(), \
                _data_phases(nodes)

    def test_no_data_channel_flush_is_left_open_under_heavy_loss(self):
        """Every data-channel membership is out of its flush at 60 s.

        The wedge this guards: a mobile suspects the relay fixed-0 and
        announces a flush that excludes it; fixed-0, which does not
        suspect itself, joins that flush and re-drives it as the lowest
        unsuspected member.  Acks go to the announcer whenever the target
        view excludes the acting coordinator, so fixed-0 cannot absorb
        them and the flush completes.
        """
        open_flushes = []
        for seed in range(1, 101):
            engine, nodes = _lossy_hybrid(0.35, seed)
            engine.run_until(60.0)
            phases = _data_phases(nodes) & _FLUSH_PHASES
            if phases:
                open_flushes.append((seed, sorted(phases)))
        assert not open_flushes, open_flushes


class TestRepeatedAdaptation:
    def test_many_swaps_never_lose_messages(self):
        """Alternate the context repeatedly; the app never notices."""
        import random
        from repro.simnet import BernoulliLoss, LinkParams
        engine = SimEngine()
        loss = BernoulliLoss(0.0, random.Random(2))
        network = Network(engine, wireless=LinkParams(
            latency_s=0.002, bandwidth_bps=11e6, loss=loss))
        network.add_mobile_node("mobile-0")
        for index in range(2):
            network.add_fixed_node(f"fixed-{index}")
        from repro.core import PolicyEngine, build_rule
        policy = PolicyEngine((build_rule("loss_adaptive",
                                          {"threshold": 0.08}),))
        nodes = build_morpheus_group(network, policy=policy, **FAST)
        sender = nodes["mobile-0"]
        expected = []
        # Flip the link quality several times while chatting.
        for flip in range(4):
            engine.call_at(10.0 + flip * 20.0,
                           lambda f=flip: setattr(
                               loss, "probability", 0.2 if f % 2 == 0 else 0.0))
        for index in range(150):
            engine.call_at(1.0 + index * 0.5,
                           lambda i=index: sender.send(f"flip-{i}"))
            expected.append(f"flip-{index}")
        engine.run_until(150.0)
        for node_id, morpheus in nodes.items():
            assert morpheus.chat.texts() == expected, node_id
        # At least two swaps happened (plain -> fec -> plain ...).
        coordinator = nodes["fixed-0"]
        assert coordinator.core.reconfigurations_completed >= 2

    def test_deploy_count_matches_completed_reconfigs(self):
        engine = SimEngine()
        network = Network(engine)
        network.add_fixed_node("fixed-0")
        network.add_mobile_node("mobile-0")
        nodes = build_morpheus_group(network, **FAST)
        engine.run_until(30.0)
        for morpheus in nodes.values():
            # initial + one hybrid adaptation
            assert morpheus.local_module.deploy_count == \
                1 + morpheus.core.reconfigurations_completed \
                or morpheus.local_module.deploy_count == 2


class TestFacade:
    def test_morpheus_node_surface(self):
        engine = SimEngine()
        network = Network(engine)
        network.add_fixed_node("fixed-0")
        network.add_mobile_node("mobile-0")
        nodes = build_morpheus_group(network, **FAST)
        morpheus = nodes["mobile-0"]
        assert morpheus.node_id == "mobile-0"
        assert morpheus.stats is network.stats_of("mobile-0")
        assert morpheus.current_stack()[0] == "sim_transport"
        assert morpheus.deployed_configuration() == "data"
        assert morpheus.control_channel.name == "ctrl"

    def test_shared_transport_session_across_channels(self):
        engine = SimEngine()
        network = Network(engine)
        network.add_fixed_node("fixed-0")
        network.add_fixed_node("fixed-1")
        nodes = build_morpheus_group(network, **FAST)
        morpheus = nodes["fixed-0"]
        data_transport = morpheus.local_module.data_channel.sessions[0]
        ctrl_transport = morpheus.control_channel.sessions[0]
        assert data_transport is ctrl_transport

    def test_app_session_survives_adaptation(self):
        engine = SimEngine()
        network = Network(engine)
        network.add_fixed_node("fixed-0")
        network.add_mobile_node("mobile-0")
        nodes = build_morpheus_group(network, **FAST)
        chat_before = nodes["mobile-0"].chat
        engine.run_until(20.0)  # adaptation happened
        assert "mecho" in nodes["mobile-0"].current_stack()
        assert nodes["mobile-0"].chat is chat_before
        assert nodes["mobile-0"].local_module.data_channel.sessions[-1] \
            is chat_before


class TestStrandedHold:
    """A data stack held for a configuration that does not reach it asks
    the coordinator for it instead of waiting for good."""

    def _group(self):
        engine = SimEngine()
        network = Network(engine)
        network.add_fixed_node("fixed-0")
        network.add_fixed_node("fixed-1")
        network.add_mobile_node("mobile-0")
        return engine, build_morpheus_group(network, **FAST)

    @staticmethod
    def _settled(nodes) -> set[str]:
        assert _data_phases(nodes) == {"STABLE"}
        return {morpheus.local_module.data_channel.name
                for morpheus in nodes.values()}

    def test_a_lost_configuration_is_pulled(self, monkeypatch):
        """The coordinator's periodic re-send is off and the first
        configuration to mobile-0 is lost: only mobile-0's request gets
        it there."""
        from repro.core.core_layer import CoreSession
        monkeypatch.setattr(CoreSession, "_resend_pending",
                            lambda self, channel: self._check_complete())
        on_reconfig = CoreSession._on_reconfig
        lost = []

        def lose_first(self, payload, channel):
            if self.local == "mobile-0" and not lost:
                lost.append(payload["config_id"])
                return
            on_reconfig(self, payload, channel)

        monkeypatch.setattr(CoreSession, "_on_reconfig", lose_first)
        engine, nodes = self._group()
        engine.run_until(20.0)
        assert lost
        assert len(self._settled(nodes)) == 1
        assert all("mecho" in morpheus.current_stack()
                   for morpheus in nodes.values())

    def test_a_hold_nobody_is_deploying_is_redeployed(self):
        """The coordinator deploys a configuration it never issued (as an
        ex-coordinator's stale plan once did): its flush holds every
        other data stack, and asked for a configuration it has none of
        in flight, it redeploys the one it runs."""
        from repro.core import plain_data_template
        engine, nodes = self._group()
        engine.run_until(20.0)
        coordinator = nodes["fixed-0"].core
        assert coordinator.reconfigurations_completed == 1
        generation = self._settled(nodes)
        nodes["fixed-0"].local_module.apply(
            99, plain_data_template(tuple(sorted(nodes))),
            done=lambda config_id: None, lineage=("stale",))
        # The coordinator's own flush on the stale generation waits two
        # suspicion timeouts (30 s each) for the members that never came.
        engine.run_until(80.0)
        assert coordinator.reconfigurations_completed == 2
        settled = self._settled(nodes)
        assert len(settled) == 1 and settled != generation
        assert all("mecho" in morpheus.current_stack()
                   for morpheus in nodes.values())


class TestSameIdAnotherLineage:
    """Config ids are monotonic per coordinator lineage only: after a
    merge the coordinator can issue the id a member last applied, under
    another lineage.  That is a new configuration, taken only from the
    member's own coordinator; a lower id, or the same id under the same
    lineage, is a duplicate and is acked unapplied."""

    @pytest.mark.parametrize("offset, new_lineage, sender, applied", [
        (0, True, "fixed-0", True),
        (0, True, "mobile-0", False),
        (0, False, "fixed-0", False),
        (-1, True, "fixed-0", False)],
        ids=["new-lineage", "not-from-the-coordinator", "same-lineage",
             "lower-id"])
    def test_only_a_new_lineage_from_the_coordinator_is_applied(
            self, offset, new_lineage, sender, applied):
        from repro.core import plain_data_template
        engine, nodes = TestStrandedHold()._group()
        engine.run_until(20.0)
        member = nodes["fixed-1"]
        core = member.core
        assert core.view.coordinator == "fixed-0"
        assert core._last_applied_id == 1
        config_id = core._last_applied_id + offset
        lineage = [99, "fixed-0", 9] if new_lineage \
            else list(core._applied_lineage)
        deploys, acks = [], []
        member.local_module.apply = \
            lambda cid, template, done, lineage=None: \
            deploys.append((cid, lineage))
        core._send_done = lambda cid, lineage, issuer, channel: \
            acks.append((cid, issuer))
        template = plain_data_template(tuple(sorted(nodes)))
        core._on_reconfig(
            {"kind": "reconfig", "config_id": config_id,
             "lineage": lineage, "name": "plain",
             "xml": template.to_xml(), "from": sender},
            member.control_channel)
        if applied:
            assert deploys == [(config_id, tuple(lineage))]
            assert acks == []  # acked once deployed, never unapplied
        else:
            assert deploys == []
            duplicate = sender == "fixed-0"
            assert acks == ([(config_id, sender)] if duplicate else [])


class TestAckBeforeTheFirstControlView:
    def test_a_joiner_acks_a_configuration_it_deploys_before_its_view(self):
        """A coordinator that decides on the joiner's admission view can
        hand the joiner its configuration before the joiner's own control
        view is installed (the installation to a joiner is a unicast that
        can be lost or overtaken).  The joiner deploys it and acks the
        configuration's issuer: it has no coordinator of its own yet.
        Here the joiner is alone, so no view ever comes."""
        from repro.core import MorpheusNode, plain_data_template
        from repro.simnet.trace import PacketTrace
        engine = SimEngine()
        network = Network(engine)
        network.add_fixed_node("n3")
        joiner = MorpheusNode(network, "n3", ("n0", "n3"), joining=True,
                              **FAST)
        engine.run_until(1.0)
        trace = PacketTrace(network).install()
        template = plain_data_template(("n0", "n3"), heartbeat_interval=2.0)
        joiner.core._on_reconfig(
            {"kind": "reconfig", "config_id": 7, "lineage": [0, "n0", 1],
             "name": "plain", "xml": template.to_xml(), "from": "n0"},
            joiner.control_channel)
        engine.run_until(1.5)
        assert joiner.core.view is None
        assert joiner.local_module.data_channel.name == "data#c7@0.n0.1"
        acks = [(entry.time, entry.dst) for entry in trace.entries
                if entry.event == "CoreMessage" and entry.src == "n3"]
        assert acks == [(1.0, "n0")]
