"""Supervision as a node service: evidence, beats, strangers, relay probe.

Every channel of a node shares one transport session, and that session
keeps the node's evidence of life: any packet counts for its logical
sender, whatever its port.  Each channel's heartbeat session keeps its
own view, suspicions and stranger reports on top of that evidence.  A
beacon goes only to peers that are not in two-way contact with the node,
straight to the transport, and lists the channels (ports) whose view at
the sender includes the receiver.
"""

from __future__ import annotations

from repro.kernel import QoS
from repro.protocols import (BestEffortMulticastLayer, HeartbeatLayer,
                             MechoLayer, SuspectEvent, UnsuspectEvent)
from repro.simnet import Network, SimEngine, SimTransportLayer, \
    SimTransportSession
from tests.protocols.helpers import (CollectorLayer, build_group_stack,
                                     collector_of)


def shared_transport(network, node_id):
    return SimTransportSession(SimTransportLayer(), node=network.node(node_id))


def detector_stack(network, node_id, members, name, transport,
                   interval=0.5, dissemination=None):
    """Heartbeat over a dissemination layer, no membership above: the
    detector's suspicions stay observable."""
    csv = ",".join(sorted(members))
    qos = QoS(f"fd-{name}-{node_id}", [
        SimTransportLayer(),
        dissemination or BestEffortMulticastLayer(members=csv),
        HeartbeatLayer(members=csv, interval=interval),
        CollectorLayer(),
    ])
    channel = qos.create_channel(name, network.node(node_id).kernel,
                                 preset_sessions={0: transport})
    channel.start()
    return channel


def two_channel_world(members=("a", "b", "c"), interval=0.5):
    """``ctrl`` and ``data`` detector channels on every node, one NIC."""
    engine = SimEngine()
    network = Network(engine, seed=3)
    for node_id in members:
        network.add_fixed_node(node_id)
    channels = {}
    for node_id in members:
        transport = shared_transport(network, node_id)
        channels[node_id] = {
            name: detector_stack(network, node_id, members, name, transport,
                                 interval=interval)
            for name in ("ctrl", "data")}
    return engine, network, channels


def suspected(channel):
    return channel.session_named("heartbeat").suspected


def drop_from(network, receiver, port, sender, direct_only=False):
    """Drop every packet from ``sender`` arriving at ``receiver`` on
    ``port`` (only those ``sender`` transmitted itself, with
    ``direct_only``)."""
    node = network.node(receiver)
    deliver = node._ports[port]

    def filtered(packet):
        origin = packet.src if direct_only else packet.logical_src
        if origin != sender:
            deliver(packet)
    node._ports[port] = filtered


class TestEvidence:
    def test_peer_silent_on_one_port_is_not_suspected_there(self):
        """A peer whose every packet on one channel's port is lost, while
        its other traffic still arrives, stays trusted on that channel."""
        engine, network, channels = two_channel_world()
        drop_from(network, "a", "data", "b")
        watched = []
        for tick in range(1, 61):
            engine.call_at(tick * 0.5, lambda: watched.append(
                set(suspected(channels["a"]["data"]))))
        engine.run_until(30.5)
        assert not any(watched), watched
        assert suspected(channels["a"]["ctrl"]) == set()

    def test_crashed_peer_suspected_on_every_channel_in_time(self):
        engine, network, channels = two_channel_world()
        engine.run_until(1.0)
        network.crash_node("c")
        # suspect_timeout (6 x 0.5 s) plus one interval.
        engine.run_until(1.0 + 3.0 + 0.5)
        for node_id in ("a", "b"):
            for name, channel in channels[node_id].items():
                assert "c" in suspected(channel), (node_id, name)

    def test_relayed_traffic_is_evidence_of_its_origin(self):
        """Everything a mobile transmits itself is lost on the way to one
        peer; its messages still reach that peer through the relay, so
        the peer keeps trusting it."""
        engine = SimEngine()
        network = Network(engine, seed=3)
        network.add_fixed_node("relay")
        network.add_mobile_node("m0")
        network.add_mobile_node("m1")
        members = ("m0", "m1", "relay")
        channels = {}
        for node_id in members:
            mode = "wired" if node_id == "relay" else "wireless"
            channels[node_id] = detector_stack(
                network, node_id, members, "data",
                shared_transport(network, node_id),
                dissemination=MechoLayer(mode=mode, relay="relay",
                                         members=",".join(members)))
        drop_from(network, "m1", "data", "m0", direct_only=True)
        for tick in range(40):
            engine.call_at(0.5 + tick * 0.25, lambda: collector_of(
                channels["m0"]).send_text("chat"))
        engine.run_until(10.0)
        assert "m0" not in suspected(channels["m1"])


class TestBeats:
    def test_one_beacon_per_peer_per_interval_across_channels(self):
        engine, network, channels = two_channel_world(interval=1.0)
        engine.run_until(0.5)
        network.reset_stats()
        engine.run_until(10.5)
        beats = network.stats_of("a").sent_by_event["HeartbeatMessage"]
        # ~10 intervals, one beacon to each of b and c covering both
        # channels (a beacon per channel would read ~40).
        assert 16 <= beats <= 24

    def test_node_beats_once_per_interval_whatever_the_channel_phases(self):
        """A channel opened half an interval after the first one adds no
        beat of its own; the beat stops when the node's last channel
        closes."""
        engine = SimEngine()
        network = Network(engine, seed=3)
        members = ("a", "b", "c")
        for node_id in members:
            network.add_fixed_node(node_id)
        transports = {node_id: shared_transport(network, node_id)
                      for node_id in members}
        channels = {
            node_id: [detector_stack(network, node_id, members, "ctrl",
                                     transports[node_id], interval=1.0)]
            for node_id in members}
        engine.run_until(0.6)
        for node_id in members:
            channels[node_id].append(detector_stack(
                network, node_id, members, "data", transports[node_id],
                interval=1.0))
        engine.run_until(1.5)
        network.reset_stats()
        engine.run_until(11.5)
        beats = network.stats_of("a").sent_by_event["HeartbeatMessage"]
        assert beats == 20, beats  # ten beats, one beacon to b and to c
        for channel in channels["a"]:
            channel.close()
        engine.run_until(13.5)
        network.reset_stats()
        engine.run_until(20.0)
        assert network.stats_of("a").sent_by_event["HeartbeatMessage"] == 0
        assert transports["a"]._beat_port is None

    def test_two_way_traffic_replaces_beacons(self):
        engine, network, channels = two_channel_world(interval=1.0)
        engine.run_until(0.5)
        network.reset_stats()
        # a and b multicast on both channels every 0.25 s; c only listens.
        for tick in range(40):
            for node_id in ("a", "b"):
                for channel in channels[node_id].values():
                    engine.call_at(0.5 + tick * 0.25,
                                   lambda c=channel, t=tick:
                                   collector_of(c).send_text(t))
        engine.run_until(10.5)
        beats = {node_id: network.stats_of(node_id).sent_by_event[
            "HeartbeatMessage"] for node_id in channels}
        # a and b are in two-way contact with everyone (c beacons them);
        # c sends nothing else, so it still beacons a and b.
        assert beats["a"] <= 2 and beats["b"] <= 2, beats
        assert 16 <= beats["c"] <= 24, beats
        for node_id in ("a", "b", "c"):
            for channel in channels[node_id].values():
                assert suspected(channel) == set()


def suite_world(members, interval=0.5):
    """Full-suite ``ctrl`` and ``data`` channels sharing each node's NIC."""
    engine = SimEngine()
    network = Network(engine, seed=3)
    for node_id in members:
        network.add_fixed_node(node_id)
    transports = {node_id: shared_transport(network, node_id)
                  for node_id in members}
    channels = {node_id: {
        name: build_group_stack(network, node_id, members,
                                heartbeat_interval=interval,
                                channel_name=name,
                                transport=transports[node_id])
        for name in ("ctrl", "data")} for node_id in members}
    return engine, network, channels, transports


def members_of(channel):
    view = collector_of(channel).view
    return view.members if view is not None else None


class TestStrangers:
    def test_zombie_readmitted_on_both_channels(self):
        members = ("a", "b", "c")
        engine, network, channels, _ = suite_world(members)
        engine.run_until(1.0)
        network.crash_node("c")
        engine.run_until(10.0)
        for name in ("ctrl", "data"):
            assert members_of(channels["a"][name]) == ("a", "b"), name
        network.recover_node("c")
        engine.run_until(14.0)  # 3 s after recovery, plus a second
        for node_id in members:
            for name, channel in channels[node_id].items():
                assert members_of(channel) == members, (node_id, name)

    def test_joiner_not_admitted_to_data_before_its_data_stack(self):
        engine, network, channels, transports = suite_world(("a", "b"))
        engine.run_until(2.0)
        network.add_fixed_node("j")
        joiner = shared_transport(network, "j")
        everyone = ("a", "b", "j")
        channels["j"] = {"ctrl": build_group_stack(
            network, "j", everyone, channel_name="ctrl", join=True,
            heartbeat_interval=0.5, transport=joiner)}
        engine.run_until(12.0)
        for node_id in ("a", "b"):
            assert members_of(channels[node_id]["ctrl"]) == everyone
            # j's beacons list only the port j runs a channel on.
            assert members_of(channels[node_id]["data"]) == ("a", "b")
        channels["j"]["data"] = build_group_stack(
            network, "j", everyone, channel_name="data", join=True,
            heartbeat_interval=0.5, transport=joiner)
        engine.run_until(22.0)
        for node_id in everyone:
            assert members_of(channels[node_id]["data"]) == everyone, node_id


def hybrid_detectors(interval=1.0, relay_timeout=3.0, with_ctrl=False):
    """One fixed relay and two mobiles on a quiet Mecho data channel (and,
    ``with_ctrl``, a plain ``ctrl`` detector channel on the same NICs)."""
    engine = SimEngine()
    network = Network(engine, seed=3)
    network.add_fixed_node("relay")
    network.add_mobile_node("m0")
    network.add_mobile_node("m1")
    members = ("m0", "m1", "relay")
    channels = {}
    for node_id in members:
        mode = "wired" if node_id == "relay" else "wireless"
        transport = shared_transport(network, node_id)
        channels[node_id] = detector_stack(
            network, node_id, members, "data", transport, interval=interval,
            dissemination=MechoLayer(mode=mode, relay="relay",
                                     members=",".join(members),
                                     relay_timeout=relay_timeout))
        if with_ctrl:
            detector_stack(network, node_id, members, "ctrl", transport,
                           interval=interval)
    return engine, network, channels


def group_send_transmissions(network, engine, channel, text):
    """Data packets one group send from ``channel`` costs its node."""
    network.reset_stats()
    collector_of(channel).send_text(text)
    engine.run_until(engine.now() + 1.0)
    return network.stats_of(channel.local_address).sent_data


class TestRelayProbe:
    def test_quiet_data_channel_keeps_its_live_relay(self):
        engine, network, channels = hybrid_detectors()
        mecho = channels["m0"].session_named("mecho")
        watched = []
        for tick in range(1, 31):
            engine.call_at(tick * 1.0, lambda: watched.append(
                mecho.relay_silent or bool(mecho.suspected)))
        engine.run_until(30.5)  # 10 x relay_timeout, no app traffic
        assert not any(watched), watched
        assert group_send_transmissions(network, engine, channels["m0"],
                                        "via-relay") == 1

    def test_relay_crash_falls_back_within_relay_timeout(self):
        engine, network, channels = hybrid_detectors()
        engine.run_until(5.0)
        network.crash_node("relay")
        engine.run_until(5.0 + 3.0 + 0.01)
        assert channels["m0"].session_named("mecho").relay_silent
        # The probe, not the detector (6 s), engaged the fall-back.
        assert "relay" not in suspected(channels["m0"])
        assert group_send_transmissions(network, engine, channels["m0"],
                                        "direct") == 2

    def test_relay_heard_again_is_used_again(self):
        """The probe's fall-back is a routing decision: a relay that comes
        back before the detector's verdict is trusted again by the probe
        alone, and the detector never suspected it."""
        engine, network, channels = hybrid_detectors()
        engine.run_until(5.0)
        network.crash_node("relay")
        engine.run_until(8.5)
        mecho = channels["m0"].session_named("mecho")
        assert mecho.relay_silent
        network.recover_node("relay")
        engine.run_until(15.0)
        assert not mecho.relay_silent
        assert "relay" not in suspected(channels["m0"])
        assert group_send_transmissions(network, engine, channels["m0"],
                                        "via-relay-again") == 1

    def test_probe_never_clears_the_detectors_suspicion(self):
        """A relay the detector suspects stays bypassed while it keeps
        talking on another channel: fresh evidence of it ends the probe's
        silence, and only an UnsuspectEvent ends the suspicion."""
        engine, network, channels = hybrid_detectors(with_ctrl=True)
        engine.run_until(2.0)
        data = channels["m0"]
        data.session_named("heartbeat").send_down(SuspectEvent("relay"),
                                                  channel=data)
        engine.run_until(2.0 + 10 * 3.0)
        assert not data.session_named("mecho").relay_silent
        assert group_send_transmissions(network, engine, data,
                                        "still-direct") == 2
        data.session_named("heartbeat").send_down(UnsuspectEvent("relay"),
                                                  channel=data)
        engine.run_until(engine.now() + 0.1)
        assert group_send_transmissions(network, engine, data,
                                        "via-relay") == 1
