"""Channel routing, lifecycle and session-sharing behaviour."""

from __future__ import annotations

import pytest

from repro.kernel import (ChannelState, ChannelStateError, DebugEvent,
                          Direction, EchoEvent, EventRoutingError, Kernel,
                          QoS, SendableEvent)
from tests.kernel.helpers import (AllSendableRecorderLayer, ConsumerLayer,
                                  HoldingLayer, PingEvent, PongEvent,
                                  PongRecorderLayer, RecorderLayer,
                                  build_channel)


@pytest.fixture
def kernel():
    return Kernel(name="test-node")


class TestLifecycle:
    def test_start_delivers_channel_init_bottom_up(self, kernel):
        bottom, middle, top = RecorderLayer(), RecorderLayer(), RecorderLayer()
        channel = build_channel(kernel, [bottom, middle, top])
        assert channel.state is ChannelState.STARTED
        for session in channel.sessions:
            assert session.inits == 1
        # Bottom sees init before top.
        assert channel.sessions[0].seen[0] is channel.sessions[1].seen[0]

    def test_close_delivers_channel_close_top_down_then_finalizes(self, kernel):
        channel = build_channel(kernel, [RecorderLayer(), RecorderLayer()])
        sessions = list(channel.sessions)
        channel.close()
        assert channel.state is ChannelState.CLOSED
        assert channel.sessions == []  # the closed channel releases its stack
        for session in sessions:
            assert session.closes == 1
            assert channel not in session.channels

    def test_cannot_start_twice(self, kernel):
        channel = build_channel(kernel, [RecorderLayer()])
        with pytest.raises(ChannelStateError):
            channel.start()

    def test_cannot_route_after_close(self, kernel):
        channel = build_channel(kernel, [RecorderLayer()])
        channel.close()
        with pytest.raises(ChannelStateError):
            channel.insert(PingEvent(), Direction.UP)

    def test_close_before_start_rejected(self, kernel):
        channel = build_channel(kernel, [RecorderLayer()], start=False)
        with pytest.raises(ChannelStateError):
            channel.close()


class TestRouting:
    def test_event_visits_only_interested_layers(self, kernel):
        ping_layer = RecorderLayer()
        pong_layer = PongRecorderLayer()
        channel = build_channel(kernel, [ping_layer, pong_layer])
        channel.insert(PingEvent(), Direction.UP)
        ping_session = channel.sessions[0]
        pong_session = channel.sessions[1]
        assert "PingEvent" in ping_session.seen_types()
        assert "PingEvent" not in pong_session.seen_types()

    def test_isinstance_matching_accepts_subclasses(self, kernel):
        generic = AllSendableRecorderLayer()
        channel = build_channel(kernel, [generic])
        channel.insert(PingEvent(), Direction.UP)
        channel.insert(PongEvent(), Direction.UP)
        names = channel.sessions[0].seen_types()
        assert names.count("PingEvent") == 1
        assert names.count("PongEvent") == 1

    def test_up_route_visits_bottom_to_top(self, kernel):
        layers = [RecorderLayer() for _ in range(3)]
        channel = build_channel(kernel, layers)
        event = PingEvent()
        channel.insert(event, Direction.UP)
        order = [session for session in channel.sessions
                 if event in session.seen]
        assert order == channel.sessions

    def test_down_route_visits_top_to_bottom(self, kernel):
        layers = [RecorderLayer() for _ in range(3)]
        channel = build_channel(kernel, layers)
        event = PingEvent()
        channel.insert(event, Direction.DOWN)
        for session in channel.sessions:
            assert event in session.seen
        top_session = channel.sessions[-1]
        bottom_session = channel.sessions[0]
        assert top_session.seen.index(event) <= bottom_session.seen.index(event)

    def test_consumed_event_stops(self, kernel):
        bottom = RecorderLayer()
        consumer = ConsumerLayer()
        top = RecorderLayer()
        channel = build_channel(kernel, [bottom, consumer, top])
        channel.insert(PingEvent(), Direction.UP)
        assert "PingEvent" in channel.sessions[0].seen_types()
        assert "PingEvent" in channel.sessions[1].seen_types()
        assert "PingEvent" not in channel.sessions[2].seen_types()

    def test_insert_from_starts_after_source(self, kernel):
        layers = [RecorderLayer() for _ in range(3)]
        channel = build_channel(kernel, layers)
        middle_session = channel.sessions[1]
        event = PingEvent()
        middle_session.send_up(event)
        assert event not in channel.sessions[0].seen
        assert event not in channel.sessions[1].seen
        assert event in channel.sessions[2].seen

    def test_insert_from_down_starts_below_source(self, kernel):
        layers = [RecorderLayer() for _ in range(3)]
        channel = build_channel(kernel, layers)
        middle_session = channel.sessions[1]
        event = PingEvent()
        middle_session.send_down(event)
        assert event in channel.sessions[0].seen
        assert event not in channel.sessions[2].seen

    def test_send_from_top_edge_is_silent_drop(self, kernel):
        channel = build_channel(kernel, [RecorderLayer()])
        event = PingEvent()
        channel.sessions[0].send_up(event)  # falls off the top
        assert event not in channel.sessions[0].seen

    def test_double_go_raises(self, kernel):
        channel = build_channel(kernel, [RecorderLayer()])
        event = PingEvent()
        channel.insert(event, Direction.UP)
        with pytest.raises(EventRoutingError):
            event.go()

    def test_debug_event_visits_every_layer(self, kernel):
        ping_layer = RecorderLayer()
        pong_layer = PongRecorderLayer()
        channel = build_channel(kernel, [ping_layer, pong_layer])
        event = DebugEvent()
        channel.insert(event, Direction.UP)
        for session in channel.sessions:
            assert event in session.seen


class TestEcho:
    def test_echo_bounces_wrapped_event_back(self, kernel):
        layers = [RecorderLayer() for _ in range(2)]
        channel = build_channel(kernel, layers)
        wrapped = PingEvent()
        echo = EchoEvent(wrapped)
        channel.insert(echo, Direction.DOWN)
        # The wrapped event re-enters at the bottom going UP.
        assert wrapped in channel.sessions[0].seen
        assert wrapped in channel.sessions[1].seen
        assert channel.sessions[0].seen.index(wrapped) is not None


class TestBlockingLayer:
    def test_held_events_resume_on_release(self, kernel):
        holder = HoldingLayer()
        top = RecorderLayer()
        channel = build_channel(kernel, [holder, top])
        event = PingEvent()
        channel.insert(event, Direction.UP)
        holding_session = channel.sessions[0]
        assert event in holding_session.held
        assert event not in channel.sessions[1].seen
        holding_session.release_all()
        assert event in channel.sessions[1].seen


class TestSessionSharing:
    def test_preset_session_shared_across_channels(self, kernel):
        layer_a = RecorderLayer()
        qos = QoS("q", [layer_a])
        first = qos.create_channel("one", kernel)
        first.start()
        shared = first.sessions[0]
        second = qos.create_channel("two", kernel, preset_sessions={0: shared})
        second.start()
        assert second.sessions[0] is shared
        assert set(shared.channels) == {first, second}
        first.insert(PingEvent(), Direction.UP)
        second.insert(PingEvent(), Direction.UP)
        assert len([e for e in shared.seen if isinstance(e, PingEvent)]) == 2

    def test_shared_session_requires_explicit_channel_for_sends(self, kernel):
        layer_a = RecorderLayer()
        qos = QoS("q", [layer_a])
        first = qos.create_channel("one", kernel)
        first.start()
        shared = first.sessions[0]
        second = qos.create_channel("two", kernel, preset_sessions={0: shared})
        second.start()
        with pytest.raises(EventRoutingError):
            shared.send_up(PingEvent())  # ambiguous: two bound channels
        shared.send_up(PingEvent(), channel=first)  # explicit is fine


class TestIntrospection:
    def test_layer_names_bottom_up(self, kernel):
        channel = build_channel(kernel, [RecorderLayer(), PongRecorderLayer()])
        assert channel.layer_names() == ["recorder", "pong_recorder"]

    def test_session_lookup_by_type_and_name(self, kernel):
        channel = build_channel(kernel, [RecorderLayer(), PongRecorderLayer()])
        assert channel.session_of(PongRecorderLayer) is channel.sessions[1]
        assert channel.session_named("recorder") is channel.sessions[0]
        assert channel.session_named("absent") is None

    def test_kernel_tracks_registered_channels(self, kernel):
        channel = build_channel(kernel, [RecorderLayer()], name="data")
        assert kernel.find_channel("data") is channel
        channel.close()
        assert kernel.find_channel("data") is None
