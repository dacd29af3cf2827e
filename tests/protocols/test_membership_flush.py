"""Unit tests for membership view agreement and the flush protocol."""

from __future__ import annotations

import pytest

from repro.kernel import Direction
from repro.protocols import (LeaveRequestEvent, SuspectEvent,
                             TriggerViewChangeEvent, UnsuspectEvent)
from tests.protocols.helpers import build_world, collector_of, membership_of


class TestLeave:
    def test_member_leave_installs_smaller_view(self):
        engine, network, channels = build_world(
            {"a": "fixed", "b": "fixed", "c": "fixed"})
        engine.run_until(0.5)
        channels["c"].insert(LeaveRequestEvent(), Direction.DOWN)
        engine.run_until(10.0)
        for node_id in ("a", "b"):
            assert collector_of(channels[node_id]).view.members == ("a", "b")

    def test_coordinator_leave_hands_over(self):
        engine, network, channels = build_world(
            {"a": "fixed", "b": "fixed", "c": "fixed"})
        engine.run_until(0.5)
        channels["a"].insert(LeaveRequestEvent(), Direction.DOWN)
        engine.run_until(10.0)
        for node_id in ("b", "c"):
            view = collector_of(channels[node_id]).view
            assert view.members == ("b", "c")
            assert view.coordinator == "b"
        # The group still functions under the new coordinator.
        collector_of(channels["b"]).send_text("handover-ok")
        engine.run_until(15.0)
        assert "handover-ok" in collector_of(channels["c"]).payloads()


class TestFlushUnderLoss:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_flush_completes_despite_wireless_loss(self, seed):
        engine, network, channels = build_world(
            {"a": "fixed", "b": "mobile", "c": "mobile"},
            wireless_loss=0.2, seed=seed, nack_interval=0.1)
        engine.run_until(0.5)
        for index in range(10):
            collector_of(channels["b"]).send_text(index)
        channels["a"].insert(TriggerViewChangeEvent(), Direction.DOWN)
        engine.run_until(60.0)
        for node_id, channel in channels.items():
            view = collector_of(channel).view
            assert view.view_id >= 1, node_id
            assert collector_of(channel).payloads() == list(range(10)), node_id

    def test_view_synchrony_same_delivery_set_before_view(self):
        """All members install the view with identical delivered sets."""
        engine, network, channels = build_world(
            {"a": "fixed", "b": "mobile", "c": "mobile"},
            wireless_loss=0.15, seed=6, nack_interval=0.1)
        engine.run_until(0.5)
        for index in range(15):
            collector_of(channels["c"]).send_text(index)
        channels["a"].insert(TriggerViewChangeEvent(), Direction.DOWN)
        engine.run_until(60.0)

        def delivered_before_view_1(channel):
            timeline = collector_of(channel).timeline
            cutoff = timeline.index(("view", 1))
            return tuple(payload for kind, payload in timeline[:cutoff]
                         if kind == "msg")

        sets = [delivered_before_view_1(channel)
                for channel in channels.values()]
        assert sets[0] == sets[1] == sets[2]


class TestHold:
    def test_hold_keeps_stack_blocked(self):
        engine, network, channels = build_world(
            {"a": "fixed", "b": "fixed"})
        engine.run_until(0.5)
        channels["a"].insert(TriggerViewChangeEvent(hold=True),
                             Direction.DOWN)
        engine.run_until(5.0)
        # Post-quiescence sends must not reach the network.
        network.reset_stats()
        collector_of(channels["a"]).send_text("held")
        engine.run_until(8.0)
        assert network.stats_of("a").sent_data == 0
        viewsync = channels["a"].session_named("view_sync")
        assert viewsync.blocked

    def test_quiescence_listener_hook_fires(self):
        engine, network, channels = build_world({"a": "fixed", "b": "fixed"})
        engine.run_until(0.5)
        held_views = []
        membership_of(channels["b"]).quiescence_listener = held_views.append
        channels["a"].insert(TriggerViewChangeEvent(hold=True),
                             Direction.DOWN)
        engine.run_until(5.0)
        assert len(held_views) == 1
        assert held_views[0].view_id == 1


class TestViewIdentifiers:
    def test_view_ids_strictly_increase(self):
        engine, network, channels = build_world(
            {"a": "fixed", "b": "fixed"})
        engine.run_until(0.5)
        for round_index in range(3):
            channels["a"].insert(TriggerViewChangeEvent(), Direction.DOWN)
            engine.run_until(5.0 * (round_index + 1) + 5.0)
        views = collector_of(channels["b"]).views
        ids = [view.view_id for view in views]
        assert ids == sorted(set(ids))
        assert ids[-1] == 3

    def test_exclusion_via_trigger(self):
        engine, network, channels = build_world(
            {"a": "fixed", "b": "fixed", "c": "fixed"})
        engine.run_until(0.5)
        channels["a"].insert(TriggerViewChangeEvent(exclude=("c",)),
                             Direction.DOWN)
        engine.run_until(10.0)
        assert collector_of(channels["a"]).view.members == ("a", "b")


class TestWithdrawnExclusion:
    """A member heard again before any other member acknowledged the flush
    that excludes it stays in the view: one flush, not an exclusion and a
    re-admission."""

    def suspect_then_unsuspect(self, gap):
        engine, network, channels = build_world(
            {"a": "fixed", "b": "fixed", "c": "fixed"})
        engine.run_until(1.0)
        heartbeat = channels["a"].session_named("heartbeat")
        heartbeat.send_up(SuspectEvent("c"), channel=channels["a"])
        engine.call_at(1.0 + gap, lambda: heartbeat.send_up(
            UnsuspectEvent("c"), channel=channels["a"]))
        engine.run_until(10.0)
        return channels

    def test_heard_before_any_ack_keeps_the_member(self):
        channels = self.suspect_then_unsuspect(gap=0.0)
        log = membership_of(channels["a"]).install_log
        assert all("c" in members for _, _, members, _ in log), log
        for channel in channels.values():
            assert collector_of(channel).view.members == ("a", "b", "c")

    def test_heard_after_an_ack_is_excluded_and_readmitted(self):
        channels = self.suspect_then_unsuspect(gap=0.5)
        log = membership_of(channels["a"]).install_log
        assert any(members == ("a", "b") for _, _, members, _ in log), log
        for channel in channels.values():
            assert collector_of(channel).view.members == ("a", "b", "c")
