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


class TestAcknowledgedRelease:
    """A hold flush releases as soon as every member holds the view: each
    member acks the installation and lets its stack go, and the announcer
    releases last, on the last ack — no fixed wait."""

    SPECS = {"a": "fixed", "b": "fixed", "c": "fixed",
             "d": "mobile", "e": "mobile", "f": "mobile"}

    def hold_flush(self, drop_install_to=None, quiet_s=0.0):
        """Run one hold flush from ``a``.  ``drop_install_to`` loses the
        first hold installation it is sent and, for ``quiet_s`` after,
        every repeat of it and every cut ack it re-sends."""
        engine, network, channels = build_world(self.SPECS)
        released = {}
        for node_id, channel in channels.items():
            membership_of(channel).quiescence_listener = \
                lambda view, n=node_id: released.setdefault(n, engine.now())
        dropped = []
        if drop_install_to is not None:
            straggler = membership_of(channels[drop_install_to])
            deliver = straggler._member_view_install
            send_cut_ack = straggler._send_cut_ack

            def quiet():
                return dropped and engine.now() <= dropped[0] + quiet_s

            def lose_first_hold_install(payload, channel):
                if payload["hold"] and (not dropped or quiet()):
                    dropped.append(engine.now())
                    return
                deliver(payload, channel)

            def mute_cut_ack(channel):
                if not quiet():
                    send_cut_ack(channel)

            straggler._member_view_install = lose_first_hold_install
            straggler._send_cut_ack = mute_cut_ack
        engine.run_until(0.5)
        channels["a"].insert(TriggerViewChangeEvent(hold=True),
                             Direction.DOWN)
        engine.run_until(10.0)
        return network, channels, released, dropped

    def test_release_within_three_link_delays_of_the_install(self):
        network, channels, released, _ = self.hold_flush()
        coordinator = membership_of(channels["a"])
        installed_at = coordinator.install_log[-1][0]
        # The longest path is mobile -> access point -> mobile; a packet is
        # far smaller than the 1,500 bytes charged here.
        largest_delay = 2 * network.wireless.delay_for(1500)
        assert set(released) == set(self.SPECS)
        for node_id, at in released.items():
            assert at <= installed_at + 3 * largest_delay, (node_id, at)
        # The announcer swaps last, once every member has acked.
        assert released["a"] == max(released.values())
        assert all(membership_of(channel).self_released == 0
                   for channel in channels.values())

    def test_lost_install_is_answered_by_a_holder(self):
        network, channels, released, dropped = self.hold_flush(
            drop_install_to="e")
        assert dropped, "the installation to e was never sent"
        assert set(released) == set(self.SPECS)
        straggler = membership_of(channels["e"])
        coordinator = membership_of(channels["a"])
        # e learned the view (a repeat from the announcer, which still held
        # it) rather than installing it on its own after the backstop.
        assert straggler.self_released == 0
        assert straggler.held_view == coordinator.held_view
        # The announcer released only once e had acked.
        assert released["a"] >= released["e"] > dropped[0]


    def test_one_lost_resend_does_not_pass_for_a_swap(self):
        """The announcer takes a member silent on the port for two of its
        re-send periods for one that has swapped.  A straggler whose
        install and one cut-ack re-send were lost is not silent that
        long: the announcer keeps re-sending and releases after it."""
        retry_interval = 0.3  # build_world's
        network, channels, released, dropped = self.hold_flush(
            drop_install_to="e", quiet_s=retry_interval)
        assert len(dropped) >= 2, "no repeat of the installation was lost"
        assert set(released) == set(self.SPECS)
        assert membership_of(channels["e"]).self_released == 0
        assert released["a"] >= released["e"] > dropped[-1]


class TestStaggeredBoot:
    def test_a_late_stack_raises_no_suspicion(self, monkeypatch):
        """The new stacks boot at different times; none suspects the
        member whose stack comes up last.  Each stack starts an
        observation floor for every member at its first view, and the
        node's evidence of life (its control channel's traffic and beats)
        crosses the generations."""
        from repro.core import build_morpheus_group
        from repro.core.core_layer import CoreSession
        from repro.protocols.membership import MembershipSession
        from repro.simnet import Network, SimEngine

        engine = SimEngine()
        suspicions = []
        on_suspect = MembershipSession._on_suspect

        def record(self, event):
            suspicions.append((engine.now(), self.local, event.member))
            on_suspect(self, event)

        # mobile-2 hears its configuration three suspicion timeouts late;
        # until then it holds the old generation's stack.
        timeout = 6 * 2.0
        late = 3 * timeout
        on_reconfig = CoreSession._on_reconfig

        def delayed(self, payload, channel):
            if self.local != "mobile-2" or engine.now() >= late:
                on_reconfig(self, payload, channel)

        monkeypatch.setattr(MembershipSession, "_on_suspect", record)
        monkeypatch.setattr(CoreSession, "_on_reconfig", delayed)
        network = Network(engine)
        for index in range(3):
            network.add_fixed_node(f"fixed-{index}")
            network.add_mobile_node(f"mobile-{index}")
        nodes = build_morpheus_group(network, publish_interval=1.0,
                                     evaluate_interval=1.0,
                                     heartbeat_interval=2.0)
        engine.run_until(late / 2)
        assert "mecho" in nodes["fixed-0"].current_stack()
        assert "mecho" not in nodes["mobile-2"].current_stack()
        engine.run_until(late + 3 * timeout)
        assert suspicions == []
        members = tuple(sorted(nodes))
        names = {morpheus.local_module.data_channel.name
                 for morpheus in nodes.values()}
        assert len(names) == 1
        for node_id, morpheus in nodes.items():
            channel = morpheus.local_module.data_channel
            assert "mecho" in channel.layer_names(), node_id
            assert channel.session_named("membership").view.members == \
                members
            heartbeat = channel.session_named("heartbeat")
            assert set(heartbeat.floor) == set(members)
            assert not heartbeat.suspected


class TestNoBackstopWithoutLoss:
    def test_adapt_run_never_self_releases(self, monkeypatch):
        """On a loss-free run every hold flush ends by acks: neither a
        straggler nor an announcer falls back to the liveness backstop."""
        from repro.protocols.membership import MembershipSession
        from repro.scenarios.runner import run_scenario
        from repro.scenarios.scenario import Handoff, NodeSpec, Scenario

        sessions = []
        init = MembershipSession.__init__

        def track(self, layer):
            init(self, layer)
            sessions.append(self)

        monkeypatch.setattr(MembershipSession, "__init__", track)
        nodes = tuple(NodeSpec(f"n{index}", "fixed") for index in range(5))
        events = tuple(
            Handoff(6.0 + 10.0 * index, node="n3",
                    to="mobile" if index % 2 == 0 else "fixed")
            for index in range(4))
        result = run_scenario(Scenario(
            name="loss_free_adapt", duration_s=50.0, nodes=nodes,
            events=events, heartbeat_interval=1.0, evaluate_interval=1.0),
            seed=1)
        assert result.reconfiguration_count() >= 4
        held = [s for s in sessions if s.held_view is not None]
        assert len(held) >= 4 * len(nodes)
        assert sum(s.self_released for s in sessions) == 0
