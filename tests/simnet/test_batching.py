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

import copy
import math
from dataclasses import replace
from functools import partial

import pytest

from repro.kernel import EachOf, Message, SendableEvent
from repro.kernel.packet import Packet
from repro.simnet import Battery, LinkParams, Network, NodeKind, SimEngine
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


# -- one queue entry per (request, instant) ------------------------------------

PORT = "data"


class FanOutWorld:
    """Raw NICs on a simulated network: every arrival is logged, and a
    node's one-shot ``hooks`` entry runs when a packet reaches it (a
    crash, a partition, a battery dying *between* the receivers of one
    queue entry).  ``sender_battery_mj`` is ``m0``'s battery."""

    def __init__(self, kinds: dict, same_instant: bool = False,
                 sender_battery_mj=None) -> None:
        self.engine = SimEngine()
        wired = LinkParams(latency_s=0.0005, bandwidth_bps=100e6)
        # Equal segments: a mobile sender's fixed and mobile receivers are
        # both two hops away, so they land at one instant.
        wireless = LinkParams(latency_s=0.0005, bandwidth_bps=100e6) \
            if same_instant else None
        self.network = Network(self.engine, wired=wired, wireless=wireless)
        self.log: list = []
        self.hooks: dict = {}
        for node_id, kind in kinds.items():
            battery = Battery(capacity_mj=sender_battery_mj) \
                if sender_battery_mj is not None and node_id == "m0" \
                else None
            node = self.network.add_node(node_id, kind, battery=battery)
            node.bind_port(PORT, partial(self._arrive, node_id))

    def _arrive(self, node_id: str, packet) -> None:
        self.log.append((self.engine.now(), node_id, packet.logical_src,
                         packet.size_bytes, packet.message.payload))
        hook = self.hooks.pop(node_id, None)
        if hook is not None:
            hook()

    def send(self, sender: str, members, expanded: bool = False) -> Packet:
        """One ``EachOf`` request, or the unicasts it stands for."""
        packet = Packet(src=sender, dst=EachOf(tuple(members)), port=PORT,
                        event_cls=SendableEvent,
                        message=Message(payload=f"from {sender}").wire_copy())
        node = self.network.node(sender)
        if not expanded:
            self.network.transmit(node, packet)
            return packet
        for member in members:
            self.network.transmit(node, replace(
                packet, dst=member, message=packet.message.copy()))
        return packet

    def observe(self) -> dict:
        network = self.network
        return {
            "log": list(self.log), "now": self.engine.now(),
            "delivered": network.delivered_packets,
            "lost": network.lost_packets,
            "stats": {node_id: copy.deepcopy(network.stats_of(node_id))
                      for node_id in network.nodes},
            "batteries": {node_id: (node.battery.level_mj
                                    if node.battery else None)
                          for node_id, node in network.nodes.items()}}


MIXED = {"f0": NodeKind.FIXED, "m0": NodeKind.MOBILE,
         "f1": NodeKind.FIXED, "m1": NodeKind.MOBILE,
         "f2": NodeKind.FIXED, "m2": NodeKind.MOBILE}


def _crash(world, node_id):
    return lambda: world.network.crash_node(node_id)


def _partition(world):
    return lambda: world.network.partition(("f0", "m0", "f1"),
                                           ("m1", "f2", "m2"))


def _drain_battery(world, node_id):
    battery = world.network.node(node_id).battery
    return lambda: battery._drain(battery.level_mj, world.engine.now())


def run_fan_out_case(case: str, expanded: bool = False) -> dict:
    """One fan-out case; every observation, and at each step whether it
    went through a shared queue entry."""
    world = FanOutWorld(MIXED, same_instant=case in ("same_instant",
                                                     "receiver_battery"),
                        sender_battery_mj=2.5 * _tx_cost()
                        if case == "sender_battery" else None)
    engine, network = world.engine, world.network
    others = ["f1", "m1", "f2", "m2", "f0"]
    steps = []
    if case == "same_instant":
        world.send("m0", others, expanded)
    elif case == "crash":
        world.hooks["f1"] = _crash(world, "f2")
        world.send("f0", others[:-1], expanded)
    elif case == "partition":
        world.hooks["f1"] = _partition(world)
        world.send("f0", others[:-1], expanded)
    elif case == "receiver_battery":
        world.hooks["f1"] = _drain_battery(world, "m1")
        world.hooks["f2"] = _drain_battery(world, "m2")
        world.send("m0", others, expanded)
    elif case == "sender_battery":
        world.send("m0", others, expanded)
    elif case == "deadline":
        size = world.send("f0", others[:-1], expanded).size_bytes
        first = network._hop_plan(network.node("f0"), NodeKind.FIXED,
                                  size)[1]
        engine.run_until(math.nextafter(first, 0.0))
        steps.append(world.observe())
        engine.run_until(first)  # inclusive: the batch is delivered
        steps.append(world.observe())
    widths = [len(dsts) for *_, dsts, _ in network._batcher.pending]
    steps.append(engine.reserve_seq())
    engine.run_until(1.0)
    steps.append(world.observe())
    return {"steps": steps, "widths": widths}


def _tx_cost() -> float:
    params = Battery().params
    packet = Packet(src="m0", dst="f0", port=PORT, event_cls=SendableEvent,
                    message=Message(payload="from m0").wire_copy())
    return params.tx_per_packet_mj + \
        params.tx_per_byte_mj * packet.size_bytes


FAN_OUT_CASES = ["same_instant", "crash", "partition", "receiver_battery",
                 "sender_battery", "deadline"]


class TestOneEntryPerRequestAndInstant:
    """Batched fan-out equals one engine entry per receiver, each at its
    own reserved seq, in the cases that split a queue entry."""

    @pytest.mark.parametrize("case", FAN_OUT_CASES)
    def test_batched_equals_per_packet(self, case):
        batched = run_fan_out_case(case)
        with unbatched():
            plain = run_fan_out_case(case)
        assert batched["steps"] == plain["steps"]

    def test_fixed_and_mobile_receivers_share_one_entry(self):
        run = run_fan_out_case("same_instant")
        assert run["widths"] == [5]
        final = run["steps"][-1]
        assert [node for _, node, *_ in final["log"]] == \
            ["f1", "m1", "f2", "m2", "f0"]
        assert len({when for when, *_ in final["log"]}) == 1

    def test_a_receiver_judged_as_its_turn_comes(self):
        """A crash, a partition and a dead battery caused by one
        receiver's delivery drop the later receivers of the same entry."""
        heard = {case: [node for _, node, *_ in
                        run_fan_out_case(case)["steps"][-1]["log"]]
                 for case in ("crash", "partition", "receiver_battery")}
        assert heard == {"crash": ["f1", "m1", "m2"], "partition": ["f1"],
                         "receiver_battery": ["f1", "f2", "f0"]}

    def test_a_dying_sender_reaches_only_what_it_paid_for(self):
        final = run_fan_out_case("sender_battery")["steps"][-1]
        # Three transmissions start (the third empties the battery); the
        # fixed receivers are a hop nearer.
        assert [node for _, node, *_ in final["log"]] == ["f1", "f2", "m1"]
        assert final["stats"]["m0"].dropped_packets == 2

    def test_the_deadline_is_inclusive_for_a_whole_entry(self):
        before, at, *_ = run_fan_out_case("deadline")["steps"]
        assert before["log"] == []
        assert [node for _, node, *_ in at["log"]] == ["f1", "f2"]
