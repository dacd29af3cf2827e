"""Unit tests for the heartbeat failure detector.

These tests run the detector *without* a membership layer above it, so
suspicion state is observable directly (with membership present, a
suspicion immediately triggers a view change that clears it — that path is
covered by the integration tests).
"""

from __future__ import annotations

from repro.kernel import QoS
from repro.protocols import (BestEffortMulticastLayer, HeartbeatLayer,
                             MechoLayer)
from repro.protocols.events import PathChangedEvent
from repro.simnet import (DatagramTransportSession, Network, SimEngine,
                          SimTransportLayer)
from tests.protocols.helpers import CollectorLayer


def build_fd_stack(network, node_id, members, interval=0.5,
                   dissemination=None):
    node = network.node(node_id)
    members_csv = ",".join(sorted(members))
    transport_layer = SimTransportLayer()
    transport_session = DatagramTransportSession(transport_layer, node=node)
    if dissemination is None:
        dissemination = BestEffortMulticastLayer(members=members_csv)
    qos = QoS(f"fd-{node_id}", [
        transport_layer, dissemination,
        HeartbeatLayer(members=members_csv, interval=interval),
        CollectorLayer(),
    ])
    channel = qos.create_channel("data", node.kernel,
                                 preset_sessions={0: transport_session})
    channel.start()
    return channel


def build_fd_world(members=("a", "b", "c"), interval=0.5,
                   dissemination_factory=None):
    engine = SimEngine()
    network = Network(engine)
    for node_id in members:
        network.add_fixed_node(node_id)
    channels = {}
    for node_id in members:
        dissemination = dissemination_factory(node_id) \
            if dissemination_factory else None
        channels[node_id] = build_fd_stack(network, node_id, members,
                                           interval=interval,
                                           dissemination=dissemination)
    return engine, network, channels


def heartbeat_of(channel):
    return channel.session_named("heartbeat")


class TestSuspicion:
    def test_crashed_member_suspected_within_timeout(self):
        engine, network, channels = build_fd_world()
        engine.run_until(1.0)
        network.crash_node("c")
        engine.run_until(6.0)  # interval 0.5 → timeout 3.0s
        assert "c" in heartbeat_of(channels["a"]).suspected
        assert "c" in heartbeat_of(channels["b"]).suspected

    def test_live_members_never_suspected(self):
        engine, network, channels = build_fd_world()
        engine.run_until(30.0)
        for channel in channels.values():
            assert heartbeat_of(channel).suspected == set()

    def test_recovered_member_unsuspected(self):
        engine, network, channels = build_fd_world()
        engine.run_until(1.0)
        network.crash_node("c")
        engine.run_until(5.0)
        assert "c" in heartbeat_of(channels["a"]).suspected
        network.recover_node("c")
        engine.run_until(10.0)
        assert "c" not in heartbeat_of(channels["a"]).suspected

    def test_custom_timeout_respected(self):
        engine, network, channels = build_fd_world(interval=1.0)
        # Default timeout = 6 × interval = 6s.
        engine.run_until(1.0)
        network.crash_node("b")
        engine.run_until(5.0)  # only ~4s of silence: not yet
        assert "b" not in heartbeat_of(channels["a"]).suspected
        engine.run_until(10.0)
        assert "b" in heartbeat_of(channels["a"]).suspected


class TestMechoFallback:
    def test_suspicion_reaches_mecho_below(self):
        """Suspicions travel down so Mecho can abandon a dead relay."""
        def factory(node_id):
            mode = "wired" if node_id == "a" else "wireless"
            return MechoLayer(mode=mode, relay="a", members="a,b,c")

        engine, network, channels = build_fd_world(
            dissemination_factory=factory)
        engine.run_until(1.0)
        network.crash_node("a")  # the relay
        engine.run_until(5.0)
        mecho_b = channels["b"].session_named("mecho")
        assert "a" in mecho_b.suspected
        # b's group sends now fan out directly instead of dying at a:
        # two transmissions (towards a and c) instead of one to the relay.
        network.reset_stats()
        channels["b"].sessions[-1].send_text("direct")
        engine.run_until(6.0)
        assert network.stats_of("b").sent_data == 2

    def test_unsuspect_restores_relaying(self):
        def factory(node_id):
            mode = "wired" if node_id == "a" else "wireless"
            return MechoLayer(mode=mode, relay="a", members="a,b,c")

        engine, network, channels = build_fd_world(
            dissemination_factory=factory)
        engine.run_until(1.0)
        network.crash_node("a")
        engine.run_until(5.0)
        assert "a" in channels["b"].session_named("mecho").suspected
        network.recover_node("a")
        engine.run_until(10.0)
        assert "a" not in channels["b"].session_named("mecho").suspected
        network.reset_stats()
        channels["b"].sessions[-1].send_text("relayed-again")
        engine.run_until(11.0)
        assert network.stats_of("b").sent_data == 1  # back to single uplink


class TestPathChangeDamping:
    """Path-change window resets are budgeted (suspicion starvation fix)."""

    @staticmethod
    def inject_path_changed(channel):
        event = PathChangedEvent()
        event.channel = channel
        channel.session_named("heartbeat").on_event(event)

    def test_single_reset_postpones_suspicion(self):
        engine, network, channels = build_fd_world(interval=0.5)
        engine.run_until(1.0)
        network.crash_node("c")
        # One genuine path change just before the 3 s timeout would fire:
        # the observation window restarts and suspicion moves out.
        engine.call_at(3.8, lambda: self.inject_path_changed(channels["a"]))
        engine.run_until(4.5)
        hb = heartbeat_of(channels["a"])
        assert "c" not in hb.suspected
        assert hb.path_reset_budget.refused == 0
        engine.run_until(8.0)  # 3 s after the reset: silence wins
        assert "c" in hb.suspected

    def test_path_change_flood_cannot_starve_suspicion(self):
        engine, network, channels = build_fd_world(interval=0.5)
        engine.run_until(1.0)
        network.crash_node("c")
        # A flapping path resets faster than the 3 s timeout, forever.
        # Unbudgeted, c would never be suspected.
        for tick in range(30):
            engine.call_at(1.5 + tick,
                           lambda: self.inject_path_changed(channels["a"]))
        engine.run_until(31.0)
        hb = heartbeat_of(channels["a"])
        assert "c" in hb.suspected
        assert hb.path_reset_budget.refused > 0

    def test_suspected_members_not_revived_by_reset(self):
        engine, network, channels = build_fd_world(interval=0.5)
        engine.run_until(1.0)
        network.crash_node("c")
        engine.run_until(6.0)
        hb = heartbeat_of(channels["a"])
        assert "c" in hb.suspected
        self.inject_path_changed(channels["a"])
        # The reset touches only unsuspected members; a declared suspect
        # needs an actual heartbeat to come back.
        assert "c" in hb.suspected


class TestBeaconCost:
    def test_one_beacon_per_interval_per_member(self):
        engine, network, channels = build_fd_world(interval=1.0)
        engine.run_until(0.5)
        network.reset_stats()
        engine.run_until(10.5)
        beats = network.stats_of("a").sent_by_event["HeartbeatMessage"]
        # ~10 intervals, 2 unicasts each (fan-out to b and c).
        assert 16 <= beats <= 24
