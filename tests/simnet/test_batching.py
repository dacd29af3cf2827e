"""Batched same-slot delivery: engine primitives and network coalescing.

The batching contract has two halves:

* the **engine primitives** (``reserve_seq`` / ``schedule_at_seq`` /
  ``peek_due`` / ``advance_clock``) let a client pre-assign sequence
  numbers and later drain work at those exact ``(when, seq)`` positions —
  the sequence stream is bit-identical to scheduling one event per
  delivery (the per-packet reference of :mod:`tests.simnet.unbatched`);
* the **network** uses them to coalesce every pending delivery of the
  current timer-wheel slot into one engine event, draining in exact
  ``(when, seq)`` order so observable histories cannot change (the
  scenario-level proof lives in ``tests/scenarios/test_batching_parity``).
"""

from __future__ import annotations

import pytest

from repro.simnet import SimEngine
from repro.simnet.engine import SLOT_WIDTH_S, HeapSimEngine
from tests.simnet.unbatched import unbatched


class TestEnginePrimitives:
    @pytest.mark.parametrize("factory", [SimEngine, HeapSimEngine])
    def test_reserved_seqs_interleave_with_call_later(self, factory):
        # A reserved seq consumed later must order exactly where the
        # call_later it replaced would have: before anything scheduled
        # after the reservation at the same instant.
        engine = factory()
        fired = []
        reserved = engine.reserve_seq()
        engine.call_later(1.0, lambda: fired.append("after"))
        engine.schedule_at_seq(1.0, reserved, lambda: fired.append("reserved"))
        engine.run_until_idle()
        assert fired == ["reserved", "after"]

    @pytest.mark.parametrize("factory", [SimEngine, HeapSimEngine])
    def test_schedule_at_seq_rejects_the_past(self, factory):
        engine = factory()
        engine.call_later(2.0, lambda: None)
        engine.run_until_idle()
        with pytest.raises(ValueError):
            engine.schedule_at_seq(1.0, engine.reserve_seq(), lambda: None)

    @pytest.mark.parametrize("factory", [SimEngine, HeapSimEngine])
    def test_schedule_at_seq_consumes_no_sequence_number(self, factory):
        engine = factory()
        reserved = engine.reserve_seq()
        placed = engine.schedule_at_seq(1.0, reserved, lambda: None)
        following = engine.call_at(1.0, lambda: None)
        assert placed.seq == reserved
        assert following.seq == reserved + 1

    @pytest.mark.parametrize("factory", [SimEngine, HeapSimEngine])
    def test_peek_due_exposes_the_current_batch_head(self, factory):
        engine = factory()
        seen = []

        def probe():
            seen.append(engine.peek_due())

        engine.call_later(0.0, probe)
        handle = engine.call_later(SLOT_WIDTH_S / 4, lambda: None)
        engine.run_until_idle()
        # While probe runs, the same-slot successor is visible as the head.
        assert seen == [(handle.when, handle.seq)]

    @pytest.mark.parametrize("factory", [SimEngine, HeapSimEngine])
    def test_peek_due_skips_cancelled_heads(self, factory):
        engine = factory()
        seen = []
        engine.call_later(0.0, lambda: seen.append(engine.peek_due()))
        engine.call_later(SLOT_WIDTH_S / 4, lambda: None).cancel()
        engine.run_until_idle()
        assert seen == [None]

    def test_peek_due_none_means_nothing_before_slot_end(self):
        # The wheel cannot see beyond the current slot; None from peek_due
        # promises only that everything else is at or past the slot end.
        engine = SimEngine()
        seen = []
        engine.call_later(0.0, lambda: seen.append(engine.peek_due()))
        engine.call_later(SLOT_WIDTH_S * 3, lambda: None)
        engine.run_until_idle()
        assert seen == [None]

    @pytest.mark.parametrize("factory", [SimEngine, HeapSimEngine])
    def test_advance_clock_moves_now_monotonically(self, factory):
        engine = factory()
        engine.advance_clock(1.5)
        assert engine.now() == 1.5
        engine.advance_clock(1.0)  # never backwards
        assert engine.now() == 1.5

    @pytest.mark.parametrize("factory", [SimEngine, HeapSimEngine])
    def test_run_deadline_visible_only_inside_run_until(self, factory):
        import math
        engine = factory()
        assert engine.run_deadline == math.inf
        seen = []
        engine.call_later(1.0, lambda: seen.append(engine.run_deadline))
        engine.run_until(5.0)
        assert seen == [5.0]
        assert engine.run_deadline == math.inf


class TestNetworkCoalescing:
    def _payloads(self, sends=20):
        from tests.simnet.test_transport import build_node_stack

        from repro.simnet import Network

        engine = SimEngine()
        network = Network(engine)
        network.add_fixed_node("f0")
        network.add_fixed_node("f1")
        sender = build_node_stack(network, "f0").sessions[1]
        receiver = build_node_stack(network, "f1").sessions[1]
        for index in range(sends):
            sender.send({"kind": "chat", "n": index}, dest="f1")
        engine.run_until_idle()
        payloads = [event.message.payload for event in receiver.received]
        return payloads, engine.fired_count

    def test_batched_delivers_everything_with_fewer_events(self):
        got_batched, events_batched = self._payloads()
        with unbatched():
            got_plain, events_plain = self._payloads()
        assert len(got_batched) == len(got_plain) == 20
        assert events_batched < events_plain

    def test_delivery_payloads_identical_either_way(self):
        got_batched, _ = self._payloads()
        with unbatched():
            got_plain, _ = self._payloads()
        assert got_batched == got_plain
