"""End-to-end: Appia channels talking across the simulated network."""

from __future__ import annotations

import pytest

from repro.kernel import (Direction, Layer, Message, QoS, SendableEvent,
                          Session)
from repro.simnet import (DatagramTransportSession, Network, SimEngine,
                          SimTransportLayer)


class AppData(SendableEvent):
    """Application-level event for these tests."""


class ControlPing(SendableEvent):
    traffic_class = "control"


class _AppSession(Session):
    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.received: list[SendableEvent] = []

    def handle(self, event):
        if isinstance(event, SendableEvent) and event.direction is Direction.UP:
            self.received.append(event)
            return
        event.go()

    def send(self, payload, dest, cls=AppData):
        event = cls(message=Message(payload=payload), dest=dest)
        self.send_down(event)


class _AppLayer(Layer):
    accepted_events = (SendableEvent,)
    provided_events = (AppData, ControlPing)
    session_class = _AppSession


def build_node_stack(network, node_id, channel_name="data"):
    """One app layer over a transport session attached to the node."""
    node = network.node(node_id)
    transport_layer = SimTransportLayer()
    transport_session = DatagramTransportSession(transport_layer, node=node)
    qos = QoS("stack", [transport_layer, _AppLayer()])
    channel = qos.create_channel(channel_name, node.kernel,
                                 preset_sessions={0: transport_session})
    channel.start()
    return channel


@pytest.fixture
def world():
    engine = SimEngine()
    network = Network(engine)
    network.add_fixed_node("f0")
    network.add_mobile_node("m0")
    return engine, network


class TestEndToEnd:
    def test_unicast_reaches_peer_app(self, world):
        engine, network = world
        build_node_stack(network, "f0")
        mobile_channel = build_node_stack(network, "m0")
        mobile_app = mobile_channel.sessions[1]
        mobile_app.send(b"hello", dest="f0")
        engine.run_until_idle()
        fixed_app = network.node("f0").kernel.find_channel("data").sessions[1]
        assert len(fixed_app.received) == 1
        assert fixed_app.received[0].message.payload == b"hello"

    def test_event_type_survives_the_wire(self, world):
        engine, network = world
        build_node_stack(network, "f0")
        mobile_channel = build_node_stack(network, "m0")
        mobile_channel.sessions[1].send(b"c", dest="f0", cls=ControlPing)
        engine.run_until_idle()
        fixed_app = network.node("f0").kernel.find_channel("data").sessions[1]
        assert type(fixed_app.received[0]) is ControlPing
        assert network.stats_of("m0").sent_control == 1

    def test_logical_source_reported(self, world):
        engine, network = world
        build_node_stack(network, "f0")
        mobile_channel = build_node_stack(network, "m0")
        mobile_channel.sessions[1].send(b"x", dest="f0")
        engine.run_until_idle()
        fixed_app = network.node("f0").kernel.find_channel("data").sessions[1]
        assert fixed_app.received[0].source == "m0"

    def test_header_stack_clean_after_transport(self, world):
        """The wire framing header must not leak to the application."""
        engine, network = world
        build_node_stack(network, "f0")
        mobile_channel = build_node_stack(network, "m0")
        mobile_channel.sessions[1].send(b"x", dest="f0")
        engine.run_until_idle()
        fixed_app = network.node("f0").kernel.find_channel("data").sessions[1]
        assert fixed_app.received[0].message.headers == []

    def test_missing_destination_raises(self, world):
        engine, network = world
        channel = build_node_stack(network, "m0")
        with pytest.raises(ValueError, match="no destination"):
            channel.sessions[1].send(b"x", dest=None)

    def test_sender_mutations_after_send_do_not_leak(self, world):
        engine, network = world
        build_node_stack(network, "f0")
        mobile_channel = build_node_stack(network, "m0")
        app = mobile_channel.sessions[1]
        event = AppData(message=Message(payload=[1, 2]), dest="f0")
        app.send_down(event)
        event.message.payload.append(3)  # mutate after handing to transport
        engine.run_until_idle()
        fixed_app = network.node("f0").kernel.find_channel("data").sessions[1]
        assert fixed_app.received[0].message.payload == [1, 2]


class TestChannelBinding:
    def test_one_transport_session_serves_two_channels(self, world):
        engine, network = world
        node = network.node("f0")
        transport_layer = SimTransportLayer()
        shared = DatagramTransportSession(transport_layer, node=node)
        for name in ("data", "ctrl"):
            qos = QoS(name, [transport_layer, _AppLayer()])
            qos.create_channel(name, node.kernel,
                               preset_sessions={0: shared}).start()
        assert node.bound_ports == ("ctrl", "data")

    def test_duplicate_channel_name_rejected(self, world):
        engine, network = world
        build_node_stack(network, "f0", channel_name="data")
        with pytest.raises(ValueError, match="already bound"):
            build_node_stack(network, "f0", channel_name="data")

    def test_close_unbinds_port(self, world):
        engine, network = world
        channel = build_node_stack(network, "f0")
        channel.close()
        assert network.node("f0").bound_ports == ()

    def test_reconfiguration_rebind_same_port(self, world):
        """Close the stack and deploy a new one with the same channel name."""
        engine, network = world
        old = build_node_stack(network, "f0")
        old.close()
        new = build_node_stack(network, "f0")
        assert new.state.value == "started"
        assert network.node("f0").bound_ports == ("data",)

    def test_unattached_transport_session_rejects_init(self, world):
        engine, network = world
        node = network.node("f0")
        transport_layer = SimTransportLayer()
        qos = QoS("stack", [transport_layer, _AppLayer()])
        channel = qos.create_channel("data", node.kernel)  # fresh session
        with pytest.raises(RuntimeError, match="no node attached"):
            channel.start()
