"""Kernel timers over the manual virtual clock."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.kernel import (BackoffTimerEvent, Event, Kernel, Layer,
                          ManualClock, PeriodicTimerEvent, Session,
                          TimerEvent)
from tests.kernel.helpers import build_channel


class _TimerSession(Session):
    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.fired: list[TimerEvent] = []

    def handle(self, event: Event) -> None:
        if isinstance(event, TimerEvent):
            self.fired.append(event)
            return
        event.go()


class _TimerLayer(Layer):
    accepted_events = (TimerEvent,)
    session_class = _TimerSession


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def kernel(clock):
    return Kernel(clock=clock, name="timer-node")


class TestOneShot:
    def test_fires_after_delay(self, kernel, clock):
        channel = build_channel(kernel, [_TimerLayer()])
        session = channel.sessions[0]
        session.set_timer(5.0, tag="once")
        clock.advance(4.9)
        assert session.fired == []
        clock.advance(0.2)
        assert [event.tag for event in session.fired] == ["once"]
        assert session.fired[0].fired_at == pytest.approx(5.0)

    def test_cancel_before_fire(self, kernel, clock):
        channel = build_channel(kernel, [_TimerLayer()])
        session = channel.sessions[0]
        handle = session.set_timer(1.0, tag="never")
        handle.cancel()
        clock.advance(2.0)
        assert session.fired == []

    def test_same_instant_timers_fire_in_order(self, kernel, clock):
        channel = build_channel(kernel, [_TimerLayer()])
        session = channel.sessions[0]
        session.set_timer(1.0, tag="first")
        session.set_timer(1.0, tag="second")
        clock.advance(1.0)
        assert [event.tag for event in session.fired] == ["first", "second"]


class TestPeriodic:
    def test_reArms_until_cancelled(self, kernel, clock):
        channel = build_channel(kernel, [_TimerLayer()])
        session = channel.sessions[0]
        handle = session.set_periodic_timer(2.0, tag="tick")
        clock.advance(7.0)  # fires at t=2, 4, 6
        assert len(session.fired) == 3
        handle.cancel()
        clock.advance(10.0)
        assert len(session.fired) == 3

    def test_channel_close_stops_periodic(self, kernel, clock):
        channel = build_channel(kernel, [_TimerLayer()])
        session = channel.sessions[0]
        session.set_periodic_timer(1.0, tag="tick")
        clock.advance(2.0)
        fired_before = len(session.fired)
        assert fired_before == 2
        channel.close()
        clock.advance(5.0)
        assert len(session.fired) == fired_before

    def test_custom_periodic_event_interval(self, kernel, clock):
        channel = build_channel(kernel, [_TimerLayer()])
        session = channel.sessions[0]
        session.set_periodic_timer(3.0, PeriodicTimerEvent("slow", 3.0))
        clock.advance(9.5)
        assert len(session.fired) == 3


class TestBackoff:
    """One-shot-with-backoff: rearm-on-fire with a stretching interval."""

    def test_intervals_double_up_to_the_cap(self, kernel, clock):
        # The event object is reused across rearms, so fire times are
        # recorded at dispatch time, not read back afterwards.
        fire_times = []

        class _RecordingSession(_TimerSession):
            def handle(self, event):
                if isinstance(event, TimerEvent):
                    fire_times.append(event.fired_at)
                super().handle(event)

        class _RecordingLayer(_TimerLayer):
            session_class = _RecordingSession

        channel = build_channel(kernel, [_RecordingLayer()])
        session = channel.sessions[0]
        session.set_backoff_timer(1.0, tag="probe", max_interval=4.0)
        clock.advance(96.0)
        # Fires at 1, then +2, +4, then +4 forever (capped).
        gaps = [round(b - a, 6) for a, b in zip(fire_times, fire_times[1:])]
        assert fire_times[0] == pytest.approx(1.0)
        assert gaps[:3] == [2.0, 4.0, 4.0]
        assert set(gaps[3:]) == {4.0}

    def test_attempt_counts_completed_fires(self, kernel, clock):
        channel = build_channel(kernel, [_TimerLayer()])
        session = channel.sessions[0]
        handle = session.set_backoff_timer(1.0, tag="probe", max_interval=8.0)
        clock.advance(3.1)  # fires at 1.0 and 3.0
        assert len(session.fired) == 2
        assert handle.event.attempt == 2
        assert handle.event.interval == 4.0  # 1 -> 2 -> 4, cap not yet hit

    def test_factor_one_is_constant_rearm_on_fire(self, kernel, clock):
        channel = build_channel(kernel, [_TimerLayer()])
        session = channel.sessions[0]
        session.set_backoff_timer(2.0, tag="beat", factor=1.0)
        clock.advance(7.0)  # fires at 2, 4, 6 — periodic cadence
        assert len(session.fired) == 3

    def test_one_clock_entry_per_attempt(self, kernel, clock):
        # The event-count contract: between fires exactly one clock entry
        # exists, however long the loop has been running.
        channel = build_channel(kernel, [_TimerLayer()])
        session = channel.sessions[0]
        session.set_backoff_timer(1.0, tag="probe", max_interval=64.0)
        clock.advance(200.0)
        assert clock.pending == 1

    def test_cancel_stops_the_loop(self, kernel, clock):
        channel = build_channel(kernel, [_TimerLayer()])
        session = channel.sessions[0]
        handle = session.set_backoff_timer(1.0, tag="probe")
        clock.advance(1.5)
        assert len(session.fired) == 1
        handle.cancel()
        clock.advance(50.0)
        assert len(session.fired) == 1
        assert clock.pending == 0

    def test_handler_cancel_prevents_rearm(self, kernel, clock):
        class _CancellingSession(_TimerSession):
            def handle(self, event):
                super().handle(event)
                if isinstance(event, TimerEvent):
                    self.handle_to_cancel.cancel()

        class _CancellingLayer(_TimerLayer):
            session_class = _CancellingSession

        channel = build_channel(kernel, [_CancellingLayer()])
        session = channel.sessions[0]
        session.handle_to_cancel = session.set_backoff_timer(1.0, tag="probe")
        clock.advance(30.0)
        assert len(session.fired) == 1
        assert clock.pending == 0

    def test_channel_close_stops_backoff(self, kernel, clock):
        channel = build_channel(kernel, [_TimerLayer()])
        session = channel.sessions[0]
        session.set_backoff_timer(1.0, tag="probe")
        clock.advance(1.5)
        fired_before = len(session.fired)
        channel.close()
        clock.advance(50.0)
        assert len(session.fired) == fired_before

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffTimerEvent("bad", interval=0.0)
        with pytest.raises(ValueError):
            BackoffTimerEvent("bad", interval=1.0, factor=0.5)
        with pytest.raises(ValueError):
            # A zero cap would rearm at the same instant forever.
            BackoffTimerEvent("bad", interval=1.0, max_interval=0.0)


class _CountingSession(Session):
    """Counts its timer fires without keeping the events."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.fires = 0

    def handle(self, event: Event) -> None:
        if isinstance(event, TimerEvent):
            self.fires += 1
            return
        event.go()


class _CountingLayer(Layer):
    accepted_events = (TimerEvent,)
    session_class = _CountingSession


class TestReferenceCounting:
    def test_fired_timer_and_closed_stack_need_no_collector(self, kernel,
                                                            clock):
        gc.disable()
        try:
            channel = build_channel(kernel, [_CountingLayer(),
                                             _CountingLayer()])
            session = channel.sessions[1]
            fired = weakref.ref(session.set_timer(1.0, tag="once"))
            clock.advance(2.0)
            assert session.fires == 1
            assert fired() is None, "a fired one-shot is in a cycle"
            closed = weakref.ref(session)
            channel.close()
            del session
            # The closed channel is still referenced; its stack is not.
            assert closed() is None, "a closed channel pins its sessions"
        finally:
            gc.enable()


class TestManualClock:
    def test_now_advances(self, clock):
        assert clock.now() == 0.0
        clock.advance(2.5)
        assert clock.now() == 2.5

    def test_negative_delay_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.call_later(-1.0, lambda: None)

    def test_negative_advance_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_run_until_idle_fires_everything(self, clock):
        fired = []
        clock.call_later(1.0, lambda: fired.append(1))
        clock.call_later(5.0, lambda: fired.append(2))
        count = clock.run_until_idle()
        assert count == 2
        assert fired == [1, 2]
        assert clock.now() == 5.0

    def test_pending_counts_uncancelled(self, clock):
        handle = clock.call_later(1.0, lambda: None)
        clock.call_later(2.0, lambda: None)
        assert clock.pending == 2
        handle.cancel()
        assert clock.pending == 1

    def test_callback_scheduling_callback(self, clock):
        fired = []

        def outer():
            fired.append("outer")
            clock.call_later(1.0, lambda: fired.append("inner"))

        clock.call_later(1.0, outer)
        clock.advance(1.0)
        assert fired == ["outer"]
        clock.advance(1.0)
        assert fired == ["outer", "inner"]
