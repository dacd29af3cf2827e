"""Topology, routing, loss, energy and failure injection."""

from __future__ import annotations

import random

import pytest

from repro.kernel import Message, SendableEvent
from repro.simnet import (Battery, BernoulliLoss, LinkParams, Network,
                          NodeKind, NoLoss, Packet, SimEngine,
                          TopologyChange)
from tests.kernel.helpers import RecorderLayer, build_channel


def make_packet(src: str, dst, payload=b"x" * 100, port="data",
                traffic_class="data") -> Packet:
    return Packet(src=src, dst=dst, port=port, event_cls=SendableEvent,
                  message=Message(payload=payload),
                  traffic_class=traffic_class)


@pytest.fixture
def engine():
    return SimEngine()


@pytest.fixture
def hybrid(engine):
    """1 fixed + 2 mobile nodes, no loss."""
    network = Network(engine)
    network.add_fixed_node("fixed-0")
    network.add_mobile_node("mobile-0")
    network.add_mobile_node("mobile-1")
    return network


class TestTopology:
    def test_duplicate_node_id_rejected(self, hybrid):
        with pytest.raises(ValueError):
            hybrid.add_fixed_node("fixed-0")

    def test_node_kind_queries(self, hybrid):
        assert hybrid.fixed_ids() == ["fixed-0"]
        assert hybrid.mobile_ids() == ["mobile-0", "mobile-1"]
        assert hybrid.node_ids() == ["fixed-0", "mobile-0", "mobile-1"]

    def test_mobile_gets_default_battery(self, hybrid):
        assert hybrid.node("mobile-0").battery is not None
        assert hybrid.node("fixed-0").battery is None

    def test_hop_latency_ordering(self, hybrid, engine):
        """mobile→mobile (2 wireless hops) is slower than mobile→fixed."""
        delivered = {}
        for dst in ("fixed-0", "mobile-1"):
            node = hybrid.node(dst)
            node.bind_port("data", lambda pkt, d=dst: delivered.setdefault(
                d, engine.now()))
        sender = hybrid.node("mobile-0")
        sender.send(make_packet("mobile-0", "fixed-0"))
        sender.send(make_packet("mobile-0", "mobile-1"))
        engine.run_until_idle()
        assert delivered["fixed-0"] < delivered["mobile-1"]


class TestUnicast:
    def test_delivery_and_counters(self, hybrid, engine):
        received = []
        hybrid.node("fixed-0").bind_port("data", received.append)
        hybrid.node("mobile-0").send(make_packet("mobile-0", "fixed-0"))
        engine.run_until_idle()
        assert len(received) == 1
        assert hybrid.stats_of("mobile-0").sent_total == 1
        assert hybrid.stats_of("fixed-0").recv_total == 1
        assert hybrid.delivered_packets == 1

    def test_unknown_destination_is_lost(self, hybrid, engine):
        hybrid.node("mobile-0").send(make_packet("mobile-0", "ghost"))
        engine.run_until_idle()
        assert hybrid.lost_packets == 1

    def test_unbound_port_counts_drop(self, hybrid, engine):
        hybrid.node("mobile-0").send(make_packet("mobile-0", "fixed-0",
                                                 port="nowhere"))
        engine.run_until_idle()
        assert hybrid.stats_of("fixed-0").dropped_packets == 1
        assert hybrid.stats_of("fixed-0").snapshot()["dropped"] == 1

    def test_traffic_class_counted_separately(self, hybrid, engine):
        hybrid.node("fixed-0").bind_port("data", lambda pkt: None)
        sender = hybrid.node("mobile-0")
        sender.send(make_packet("mobile-0", "fixed-0", traffic_class="data"))
        sender.send(make_packet("mobile-0", "fixed-0", traffic_class="control"))
        engine.run_until_idle()
        stats = hybrid.stats_of("mobile-0")
        assert stats.sent_data == 1
        assert stats.sent_control == 1
        assert stats.sent_total == 2


class TestNativeMulticast:
    def test_wired_multicast_single_transmission(self, engine):
        network = Network(engine, native_multicast_wired=True)
        for index in range(3):
            network.add_fixed_node(f"fixed-{index}")
        received = []
        for index in (1, 2):
            network.node(f"fixed-{index}").bind_port(
                "data", lambda pkt: received.append(pkt.dst))
        network.node("fixed-0").send(
            make_packet("fixed-0", ("fixed-0", "fixed-1", "fixed-2")))
        engine.run_until_idle()
        assert len(received) == 2  # self excluded
        assert network.stats_of("fixed-0").sent_total == 1  # ONE transmission

    def test_multicast_across_segments_rejected(self, hybrid):
        with pytest.raises(ValueError, match="native multicast"):
            hybrid.node("mobile-0").send(
                make_packet("mobile-0", ("fixed-0", "mobile-1")))

    def test_empty_destination_tuple_rejected(self, engine):
        network = Network(engine, native_multicast_wired=True)
        network.add_fixed_node("a")
        with pytest.raises(ValueError, match="no receivers"):
            network.node("a").send(make_packet("a", ()))

    def test_sender_alone_in_own_destination_tuple_rejected(self, engine):
        """Self-only multicast is an empty fan-out, same as ``()``."""
        network = Network(engine, native_multicast_wired=True)
        network.add_fixed_node("a")
        with pytest.raises(ValueError, match="no receivers"):
            network.node("a").send(make_packet("a", ("a",)))

    def test_sender_in_destination_tuple_excluded_from_fanout(self, engine):
        """A sender listed in its own dst tuple is legal — the loopback is
        the upper layers' business, the NIC only reaches the others."""
        network = Network(engine, native_multicast_wired=True)
        for name in ("a", "b", "c"):
            network.add_fixed_node(name)
        received = []
        network.node("b").bind_port("data", received.append)
        network.node("c").bind_port("data", received.append)
        network.node("a").send(make_packet("a", ("a", "b", "c")))
        engine.run_until_idle()
        assert len(received) == 2
        assert network.stats_of("a").recv_total == 0
        assert network.stats_of("a").sent_total == 1

    def test_mixed_fixed_mobile_destinations_rejected(self, engine):
        """Mixed-segment multicast is illegal even with both native
        mechanisms enabled: nothing spans the access point."""
        network = Network(engine, native_multicast_wired=True,
                          wireless_broadcast=True)
        network.add_fixed_node("f")
        network.add_mobile_node("m")
        network.add_fixed_node("src")
        with pytest.raises(ValueError, match="native multicast"):
            network.node("src").send(make_packet("src", ("f", "m")))

    def test_wired_multicast_disabled_by_default(self, engine):
        network = Network(engine)
        network.add_fixed_node("a")
        network.add_fixed_node("b")
        with pytest.raises(ValueError):
            network.node("a").send(make_packet("a", ("a", "b")))

    def test_adhoc_broadcast_when_enabled(self, engine):
        network = Network(engine, wireless_broadcast=True)
        for index in range(3):
            network.add_mobile_node(f"mobile-{index}")
        received = []
        for index in (1, 2):
            network.node(f"mobile-{index}").bind_port(
                "data", received.append)
        network.node("mobile-0").send(
            make_packet("mobile-0", ("mobile-0", "mobile-1", "mobile-2")))
        engine.run_until_idle()
        assert len(received) == 2
        assert network.stats_of("mobile-0").sent_total == 1

    def test_per_receiver_message_isolation(self, engine):
        network = Network(engine, native_multicast_wired=True)
        for index in range(3):
            network.add_fixed_node(f"fixed-{index}")
        payloads = []

        def receive_and_mutate(pkt):
            pkt.message.push_header("local-mutation")
            payloads.append(len(pkt.message.headers))

        network.node("fixed-1").bind_port("data", receive_and_mutate)
        network.node("fixed-2").bind_port("data", receive_and_mutate)
        network.node("fixed-0").send(
            make_packet("fixed-0", ("fixed-1", "fixed-2")))
        engine.run_until_idle()
        assert payloads == [1, 1]  # each saw a fresh header stack


class TestLoss:
    def test_bernoulli_loss_drops_packets(self, engine):
        rng = random.Random(1)
        network = Network(engine, wireless=LinkParams(
            latency_s=0.002, bandwidth_bps=11e6, loss=BernoulliLoss(0.5, rng)))
        network.add_mobile_node("m0")
        network.add_fixed_node("f0")
        received = []
        network.node("f0").bind_port("data", received.append)
        for _ in range(200):
            network.node("m0").send(make_packet("m0", "f0"))
        engine.run_until_idle()
        assert 40 < len(received) < 160  # ~50% through one lossy hop
        assert network.lost_packets == 200 - len(received)

    def test_zero_loss_delivers_everything(self, engine):
        network = Network(engine, wireless=LinkParams(
            loss=BernoulliLoss(0.0, random.Random(1))))
        network.add_mobile_node("m0")
        network.add_fixed_node("f0")
        received = []
        network.node("f0").bind_port("data", received.append)
        for _ in range(50):
            network.node("m0").send(make_packet("m0", "f0"))
        engine.run_until_idle()
        assert len(received) == 50


class TestFailureInjection:
    def test_crashed_node_does_not_send(self, hybrid, engine):
        hybrid.crash_node("mobile-0")
        hybrid.node("mobile-0").send(make_packet("mobile-0", "fixed-0"))
        engine.run_until_idle()
        assert hybrid.stats_of("mobile-0").sent_total == 0
        assert hybrid.stats_of("mobile-0").dropped_packets == 1

    def test_crashed_node_does_not_receive(self, hybrid, engine):
        received = []
        hybrid.node("fixed-0").bind_port("data", received.append)
        hybrid.crash_node("fixed-0")
        hybrid.node("mobile-0").send(make_packet("mobile-0", "fixed-0"))
        engine.run_until_idle()
        assert received == []

    def test_recovery_restores_node(self, hybrid, engine):
        received = []
        hybrid.node("fixed-0").bind_port("data", received.append)
        hybrid.crash_node("fixed-0")
        hybrid.recover_node("fixed-0")
        hybrid.node("mobile-0").send(make_packet("mobile-0", "fixed-0"))
        engine.run_until_idle()
        assert len(received) == 1

    def test_partition_blocks_cross_group_traffic(self, hybrid, engine):
        received = []
        hybrid.node("fixed-0").bind_port("data", received.append)
        hybrid.partition({"mobile-0", "mobile-1"}, {"fixed-0"})
        hybrid.node("mobile-0").send(make_packet("mobile-0", "fixed-0"))
        engine.run_until_idle()
        assert received == []
        assert hybrid.lost_packets == 1
        hybrid.heal_partition()
        hybrid.node("mobile-0").send(make_packet("mobile-0", "fixed-0"))
        engine.run_until_idle()
        assert len(received) == 1


class TestRuntimeTopologyMutation:
    def test_move_node_changes_segment_and_routing(self, hybrid, engine):
        delivered_at = {}
        hybrid.node("fixed-0").bind_port(
            "data", lambda pkt: delivered_at.setdefault("t", engine.now()))
        hybrid.move_node("mobile-0", NodeKind.FIXED)
        assert hybrid.node("mobile-0").is_fixed
        assert hybrid.fixed_ids() == ["fixed-0", "mobile-0"]
        hybrid.node("mobile-0").send(make_packet("mobile-0", "fixed-0"))
        engine.run_until_idle()
        # Wired-only path now: one 0.5 ms hop, not wireless + wired.
        assert delivered_at["t"] < 0.002

    def test_move_to_mobile_gets_default_battery(self, hybrid):
        assert hybrid.node("fixed-0").battery is None
        hybrid.move_node("fixed-0", NodeKind.MOBILE)
        assert hybrid.node("fixed-0").battery is not None

    def test_docked_node_ignores_depleted_battery(self, engine):
        network = Network(engine)
        network.add_mobile_node("m0", battery=Battery(capacity_mj=0.5))
        network.node("m0").battery.consume_tx(10_000, now=0.0)
        assert not network.node("m0").alive
        network.move_node("m0", NodeKind.FIXED)
        assert network.node("m0").alive  # mains-powered on the wire

    def test_move_is_idempotent_and_cheap(self, hybrid):
        epoch = hybrid.topology_epoch
        hybrid.move_node("fixed-0", NodeKind.FIXED)  # already fixed
        assert hybrid.topology_epoch == epoch

    def test_remove_node_keeps_stats_and_loses_traffic(self, hybrid, engine):
        hybrid.node("fixed-0").bind_port("data", lambda pkt: None)
        hybrid.node("mobile-0").send(make_packet("mobile-0", "fixed-0"))
        engine.run_until_idle()
        hybrid.remove_node("mobile-0")
        assert hybrid.node_ids() == ["fixed-0", "mobile-1"]
        assert hybrid.stats_of("mobile-0").sent_total == 1  # retained
        hybrid.node("fixed-0").send(make_packet("fixed-0", "mobile-0"))
        engine.run_until_idle()
        assert hybrid.lost_packets == 1
        with pytest.raises(ValueError):
            hybrid.add_fixed_node("mobile-0")  # the id stays burned

    def test_removed_node_stops_its_timers(self, hybrid, engine):
        kernel = hybrid.node("mobile-0").kernel
        channel = build_channel(kernel, [RecorderLayer()])
        channel.sessions[0].set_periodic_timer(1.0, tag="beat")
        engine.run_until(2.5)
        fired = kernel.timer_dispatched_count
        hybrid.remove_node("mobile-0")
        engine.run_until(10.0)
        assert fired == 2 and kernel.timer_dispatched_count == fired

    def test_loss_model_swap_is_live(self, engine):
        network = Network(engine)
        network.add_mobile_node("m0")
        network.add_fixed_node("f0")
        received = []
        network.node("f0").bind_port("data", received.append)
        network.set_wireless_loss(BernoulliLoss(1.0, random.Random(1)))
        network.node("m0").send(make_packet("m0", "f0"))
        engine.run_until_idle()
        assert received == []
        network.set_wireless_loss(NoLoss())
        network.node("m0").send(make_packet("m0", "f0"))
        engine.run_until_idle()
        assert len(received) == 1

    def test_topology_listeners_observe_every_mutation(self, hybrid):
        changes: list[TopologyChange] = []
        hybrid.subscribe_topology(changes.append)
        hybrid.move_node("mobile-0", NodeKind.FIXED)
        hybrid.crash_node("mobile-1")
        hybrid.recover_node("mobile-1")
        hybrid.set_wireless_loss(NoLoss())
        hybrid.partition({"fixed-0"}, {"mobile-0", "mobile-1"})
        hybrid.heal_partition()
        hybrid.remove_node("mobile-1")
        kinds = [change.kind for change in changes]
        assert kinds == ["move", "crash", "recover", "loss", "partition",
                         "heal", "remove"]
        epochs = [change.epoch for change in changes]
        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)

    def test_unsubscribed_listener_stops_observing(self, hybrid):
        changes = []
        hybrid.subscribe_topology(changes.append)
        hybrid.crash_node("mobile-0")
        hybrid.unsubscribe_topology(changes.append)
        hybrid.recover_node("mobile-0")
        assert len(changes) == 1


class TestMidFlightDropAccounting:
    """Crash-vs-partition drops mid-flight count identically: one network
    loss plus one receiver-side drop, whichever way the packet died."""

    def _send_and(self, engine, network, mutate):
        received = []
        network.node("f0").bind_port("data", received.append)
        network.node("m0").send(make_packet("m0", "f0"))
        mutate()  # while the packet is in the air
        engine.run_until_idle()
        assert received == []
        return received

    def test_crash_mid_flight(self, engine):
        network = Network(engine)
        network.add_mobile_node("m0")
        network.add_fixed_node("f0")
        self._send_and(engine, network,
                       lambda: network.crash_node("f0"))
        assert network.lost_packets == 1
        assert network.stats_of("f0").dropped_packets == 1

    def test_partition_mid_flight(self, engine):
        network = Network(engine)
        network.add_mobile_node("m0")
        network.add_fixed_node("f0")
        self._send_and(engine, network,
                       lambda: network.partition({"m0"}, {"f0"}))
        assert network.lost_packets == 1
        assert network.stats_of("f0").dropped_packets == 1

    def test_both_paths_account_identically(self, engine):
        def run(mutate_name):
            eng = SimEngine()
            network = Network(eng)
            network.add_mobile_node("m0")
            network.add_fixed_node("f0")
            network.node("f0").bind_port("data", lambda pkt: None)
            network.node("m0").send(make_packet("m0", "f0"))
            if mutate_name == "crash":
                network.crash_node("f0")
            else:
                network.partition({"m0"}, {"f0"})
            eng.run_until_idle()
            return (network.lost_packets, network.delivered_packets,
                    network.stats_of("f0").dropped_packets)

        assert run("crash") == run("partition")


class TestEnergy:
    def test_tx_and_rx_drain_battery(self, hybrid, engine):
        hybrid.node("mobile-1").bind_port("data", lambda pkt: None)
        sender = hybrid.node("mobile-0")
        receiver = hybrid.node("mobile-1")
        before_tx = sender.battery.level_mj
        before_rx = receiver.battery.level_mj
        sender.send(make_packet("mobile-0", "mobile-1"))
        engine.run_until_idle()
        assert sender.battery.level_mj < before_tx
        assert receiver.battery.level_mj < before_rx
        # Transmission costs more than reception.
        assert (before_tx - sender.battery.level_mj) > \
            (before_rx - receiver.battery.level_mj)

    def test_depleted_battery_stops_node(self, engine):
        network = Network(engine)
        network.add_mobile_node("m0", battery=Battery(capacity_mj=0.5))
        network.add_fixed_node("f0")
        network.node("f0").bind_port("data", lambda pkt: None)
        for _ in range(10):
            network.node("m0").send(make_packet("m0", "f0"))
        engine.run_until_idle()
        stats = network.stats_of("m0")
        assert stats.sent_total < 10
        assert not network.node("m0").alive
        assert network.node("m0").battery.depleted_at is not None
