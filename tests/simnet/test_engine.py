"""Discrete-event engine determinism and scheduling semantics.

Every case runs on both :class:`SimEngine` (the timer wheel) and
:class:`HeapSimEngine` (the reference oracle the differential tests and
the fuzzer compare against): the two must be observably identical.
"""

from __future__ import annotations

import pytest

from repro.simnet import SimEngine
from repro.simnet.engine import HeapSimEngine


@pytest.fixture(params=[SimEngine, HeapSimEngine], ids=["wheel", "heap"])
def factory(request):
    return request.param


class TestScheduling:
    def test_now_starts_at_zero(self, factory):
        assert factory().now() == 0.0

    def test_callbacks_fire_in_time_order(self, factory):
        engine = factory()
        fired = []
        engine.call_later(2.0, lambda: fired.append("late"))
        engine.call_later(1.0, lambda: fired.append("early"))
        engine.run_until_idle()
        assert fired == ["early", "late"]

    def test_same_instant_fifo(self, factory):
        engine = factory()
        fired = []
        for index in range(10):
            engine.call_later(1.0, lambda i=index: fired.append(i))
        engine.run_until_idle()
        assert fired == list(range(10))

    def test_negative_delay_rejected(self, factory):
        with pytest.raises(ValueError):
            factory().call_later(-0.5, lambda: None)

    def test_call_at_in_past_rejected(self, factory):
        engine = factory()
        engine.call_later(1.0, lambda: None)
        engine.run_until_idle()
        with pytest.raises(ValueError):
            engine.call_at(0.5, lambda: None)

    def test_cancellation(self, factory):
        engine = factory()
        fired = []
        handle = engine.call_later(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run_until_idle()
        assert fired == []

    def test_cancel_is_idempotent(self, factory):
        engine = factory()
        handle = engine.call_later(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.pending == 0


class TestRunUntil:
    def test_run_until_stops_at_deadline(self, factory):
        engine = factory()
        fired = []
        engine.call_later(1.0, lambda: fired.append("in"))
        engine.call_later(3.0, lambda: fired.append("out"))
        count = engine.run_until(2.0)
        assert count == 1
        assert fired == ["in"]
        assert engine.now() == 2.0

    def test_run_until_skips_cancelled_head(self, factory):
        engine = factory()
        fired = []
        head = engine.call_later(0.5, lambda: fired.append("cancelled"))
        engine.call_later(1.0, lambda: fired.append("kept"))
        head.cancel()
        engine.run_until(2.0)
        assert fired == ["kept"]

    def test_run_until_idle_counts_fired(self, factory):
        engine = factory()
        engine.call_later(0.1, lambda: None)
        engine.call_later(0.2, lambda: None)
        assert engine.run_until_idle() == 2

    def test_livelock_guard(self, factory):
        engine = factory()

        def reschedule():
            engine.call_later(0.001, reschedule)

        engine.call_later(0.001, reschedule)
        with pytest.raises(RuntimeError, match="livelock"):
            engine.run_until_idle(max_events=1000)

    def test_nested_scheduling_runs(self, factory):
        engine = factory()
        fired = []

        def outer():
            fired.append("outer")
            engine.call_later(1.0, lambda: fired.append("inner"))

        engine.call_later(1.0, outer)
        engine.run_until_idle()
        assert fired == ["outer", "inner"]
        assert engine.now() == 2.0

    def test_zero_delay_cascade_fires_at_an_inclusive_deadline(self, factory):
        engine = factory()
        order = []

        def event():
            order.append("event")
            engine.call_later(0.0, lambda: order.append("cascade"))

        engine.call_at(1.0, event)
        assert engine.run_until(1.0) == 2
        assert order == ["event", "cascade"]
        assert engine.now() == 1.0

    def test_scheduling_counts_from_the_committed_clock(self, factory):
        engine = factory()
        seen = []
        # The entry at 2.0 schedules relative to the clock it fired at;
        # after run_until returns, new work counts from the deadline, not
        # from the last entry that fired.
        engine.call_at(1.25, lambda: None)
        engine.call_at(2.0, lambda: engine.call_later(
            0.5, lambda: seen.append(engine.now())))
        engine.run_until(3.0)
        engine.call_later(0.5, lambda: seen.append(engine.now()))
        engine.run_until_idle()
        assert seen == [2.5, 3.5]

    def test_step_returns_false_when_idle(self, factory):
        assert factory().step() is False


class TestDeterminism:
    def test_two_identical_runs_fire_identically(self, factory):
        def run() -> list[tuple[float, int]]:
            engine = factory()
            log: list[tuple[float, int]] = []
            for index in range(50):
                delay = ((index * 7) % 13) / 10.0
                engine.call_later(delay, lambda i=index: log.append(
                    (engine.now(), i)))
            engine.run_until_idle()
            return log

        assert run() == run()


class TestPendingCounter:
    """``pending`` is a live counter (O(1)), not a queue scan; it must stay
    exact through any interleaving of scheduling, firing and cancellation."""

    @staticmethod
    def _heap_scan(engine: SimEngine) -> int:
        return len(engine._scan_live())

    def test_counts_push_fire_cancel(self, factory):
        engine = factory()
        handles = [engine.call_later(i / 10.0, lambda: None)
                   for i in range(10)]
        assert engine.pending == 10
        handles[3].cancel()
        handles[7].cancel()
        assert engine.pending == 8
        engine.step()
        assert engine.pending == 7
        engine.run_until_idle()
        assert engine.pending == 0

    def test_matches_heap_scan_under_random_interleaving(self, factory):
        import random as _random
        rng = _random.Random(5)
        engine = factory()
        handles = []
        for round_index in range(200):
            action = rng.random()
            if action < 0.5 or not handles:
                handles.append(
                    engine.call_later(rng.random(), lambda: None))
            elif action < 0.75:
                handles.pop(rng.randrange(len(handles))).cancel()
            else:
                engine.step()
            assert engine.pending == self._heap_scan(engine)
        engine.run_until_idle()
        assert engine.pending == 0

    def test_cancelling_a_fired_entry_does_not_go_negative(self, factory):
        engine = factory()
        handle = engine.call_later(0.0, lambda: None)
        engine.run_until_idle()
        handle.cancel()  # late cancel of an already-fired entry
        assert engine.pending == 0
