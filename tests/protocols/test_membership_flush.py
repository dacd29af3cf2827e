"""Unit tests for membership view agreement and the flush protocol."""

from __future__ import annotations

import pytest

from repro.kernel import Direction
from repro.protocols import (LeaveRequestEvent, MembershipMessage,
                             SuspectEvent, TriggerViewChangeEvent,
                             UnsuspectEvent)
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


class TestOneSidedSuspicion:
    def test_a_member_suspecting_the_coordinator_alone_completes(self):
        """b suspects a, which suspects nobody.  The flush b announces
        excludes a, so every ack goes to b: sent to the lowest member
        each side still trusts (a), a would join the flush that excludes
        it, absorb every ack and the flush would wedge."""
        engine, network, channels = build_world(
            {"a": "fixed", "b": "fixed", "c": "fixed"})
        engine.run_until(1.0)
        heartbeat = channels["b"].session_named("heartbeat")
        heartbeat.send_up(SuspectEvent("a"), channel=channels["b"])
        engine.run_until(5.0)
        log = membership_of(channels["b"]).install_log
        assert [members for _, _, members, _ in log[1:]] == \
            [("b", "c"), ("a", "b", "c")]
        for channel in channels.values():
            assert membership_of(channel).phase.value == "stable"
            assert collector_of(channel).view.members == ("a", "b", "c")


class TestLaggingMember:
    def test_a_member_that_missed_an_installation_is_pulled_forward(self):
        """c acks a's flush to view 1, and its installation and every
        re-send of c's cut ack are lost: a and b install view 1, c waits
        in view 0.  a's next flush names view 2, two past c's view; c
        asks a for what it missed instead of ignoring the flush, which
        would wedge it with every member heartbeating contentedly."""
        engine, network, channels = build_world(
            {"a": "fixed", "b": "fixed", "c": "fixed"})
        straggler = membership_of(channels["c"])
        deliver = straggler._member_view_install
        send_cut_ack = straggler._send_cut_ack
        acks = []

        def lose_until_the_next_flush(payload, channel):
            if engine.now() >= 3.0:
                deliver(payload, channel)

        def lose_every_resend(channel):
            acks.append(straggler._target_view.view_id)
            if acks.count(1) == 1 or acks[-1] != 1:
                send_cut_ack(channel)

        straggler._member_view_install = lose_until_the_next_flush
        straggler._send_cut_ack = lose_every_resend
        engine.run_until(0.5)
        channels["a"].insert(TriggerViewChangeEvent(), Direction.DOWN)
        engine.run_until(3.0)
        assert [collector_of(channels[n]).view.view_id
                for n in ("a", "b", "c")] == [1, 1, 0]
        channels["a"].insert(TriggerViewChangeEvent(), Direction.DOWN)
        engine.run_until(5.0)
        assert [view_id for _, view_id, _, _ in straggler.install_log] == \
            [0, 1, 2]
        for channel in channels.values():
            assert membership_of(channel).phase.value == "stable"
            assert collector_of(channel).view.view_id == 2


class TestAdmissionOnTopOfTheOwnView:
    """An installation that admits this node as a joiner with the id after
    its own view, from a member of that view, and that this node never
    installed is cross-lineage: a view of its own lineage would have had
    it flush, not join.  It is taken only under an incarnation newer than
    this node has recorded for the stamp's coordinator (a recovered
    node's late re-announcement of its private view replays an old one)."""

    @pytest.mark.parametrize("newer, taken", [(0, False), (1, True)],
                             ids=["recorded-incarnation", "newer-incarnation"])
    def test_the_stamp_must_be_newer(self, newer, taken):
        engine, network, channels = build_world(
            {"a": "fixed", "b": "fixed", "c": "fixed"})
        engine.run_until(0.5)
        channels["a"].insert(TriggerViewChangeEvent(), Direction.DOWN)
        engine.run_until(2.0)
        member = membership_of(channels["c"])
        announcer = membership_of(channels["a"])
        assert member.view.view_id == 1 and announcer.incarnation == 1
        before = list(member.install_log)
        payload = {"kind": "view_install", "new_view_id": 2,
                   "members": ["a", "c"], "hold": False, "from": "a",
                   "joiners": ["c"], "departed": ["b"],
                   "stamp": ["a", announcer.incarnation + newer]}
        announcer.send_down(
            announcer.control_message(MembershipMessage, payload,
                                      dest="c", source="a"),
            channel=channels["a"])
        engine.run_until(2.1)
        if taken:
            assert member.view.view_id == 2
            assert member.view.members == ("a", "c")
        else:
            assert member.install_log == before
            assert member.view.members == ("a", "b", "c")


class TestIsolatedAnnouncer:
    """A member that suspected everyone it could not hear flushes alone.

    Its flush request or installation, once the link is back, names a
    target that keeps nobody of the view but itself.  The members that
    receive it must not take it up: they would abandon their own view
    for one that excludes them.  They exclude the announcer instead, and
    it merges back through its probes.
    """

    @staticmethod
    def announce_alone(kind):
        engine, network, channels = build_world(
            {"a": "fixed", "b": "fixed", "c": "fixed"})
        engine.run_until(1.0)
        announcer = membership_of(channels["c"])
        payload = {"kind": kind, "new_view_id": announcer.view.view_id + 1,
                   "members": ["c"], "hold": False, "from": "c"}
        if kind == "flush_req":
            payload.update(incarnation=announcer.incarnation, attempt=1)
        else:
            payload.update(joiners=[], departed=["a", "b"],
                           stamp=["c", announcer.incarnation])
        for dest in ("a", "b"):
            announcer.send_down(
                announcer.control_message(MembershipMessage, dict(payload),
                                          dest=dest, source="c"),
                channel=channels["c"])
        engine.run_until(1.5)
        collector_of(channels["a"]).send_text("after")
        engine.run_until(40.0)
        return channels

    @pytest.mark.parametrize("kind", ["flush_req", "view_install"])
    def test_the_view_survives_and_the_announcer_merges_back(self, kind):
        channels = self.announce_alone(kind)
        for node_id in ("a", "b"):
            views = collector_of(channels[node_id]).views
            assert all(node_id in view.members for view in views), views
        for channel in channels.values():
            collector = collector_of(channel)
            assert collector.view.members == ("a", "b", "c")
            assert collector.payloads() == ["after"]


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
