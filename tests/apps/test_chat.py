"""The chat application layer: queueing, callbacks, rooms, leave."""

from __future__ import annotations

import pickle

import pytest

from repro.core import build_plain_group
from repro.simnet import Network, SimEngine


@pytest.fixture
def plain_pair():
    engine = SimEngine()
    network = Network(engine)
    network.add_fixed_node("a")
    network.add_fixed_node("b")
    nodes = build_plain_group(network)
    return engine, network, nodes


class TestSendQueueing:
    def test_sends_before_first_view_are_queued(self, plain_pair):
        engine, network, nodes = plain_pair
        nodes["a"].send("too-early")  # before the initial view installs
        assert nodes["a"].chat.ready is False
        engine.run_until(2.0)
        assert nodes["b"].chat.texts() == ["too-early"]

    def test_outbox_preserves_order(self, plain_pair):
        engine, network, nodes = plain_pair
        for index in range(5):
            nodes["a"].send(f"q-{index}")
        engine.run_until(2.0)
        assert nodes["b"].chat.texts() == [f"q-{i}" for i in range(5)]


class TestCallbacks:
    def test_on_message_invoked_with_delivery(self, plain_pair):
        engine, network, nodes = plain_pair
        engine.run_until(0.5)
        seen = []
        nodes["b"].chat.on_message = seen.append
        nodes["a"].send("callback")
        engine.run_until(2.0)
        assert len(seen) == 1
        assert seen[0].source == "a"
        assert seen[0].text == "callback"
        assert seen[0].room == "lobby"

    def test_on_view_change_invoked(self, plain_pair):
        engine, network, nodes = plain_pair
        views = []
        nodes["b"].chat.on_view_change = views.append
        engine.run_until(2.0)
        assert len(views) == 1
        assert views[0].members == ("a", "b")


class TestRooms:
    def test_room_name_carried_in_deliveries(self):
        engine = SimEngine()
        network = Network(engine)
        network.add_fixed_node("a")
        network.add_fixed_node("b")
        nodes = build_plain_group(network, room="ops")
        engine.run_until(0.5)
        nodes["a"].send("alert")
        engine.run_until(2.0)
        assert nodes["b"].chat.history[0].room == "ops"

    def test_history_timestamps_monotone(self, plain_pair):
        engine, network, nodes = plain_pair
        engine.run_until(0.5)
        for index in range(4):
            nodes["a"].send(str(index))
            engine.run_until(1.0 + index)
        times = [d.time for d in nodes["b"].chat.history]
        assert times == sorted(times)


class TestHistory:
    def test_flat_group_keeps_one_copy(self, plain_pair):
        engine, network, nodes = plain_pair
        engine.run_until(0.5)
        nodes["a"].send("hello")
        engine.run_until(2.0)
        chat = nodes["b"].chat
        assert chat.texts() == ["hello"]
        assert chat._keys is None  # no dedup set beside the history
        assert not hasattr(chat.history[0], "__dict__")

    def test_repair_dedups_against_history(self, plain_pair):
        engine, network, nodes = plain_pair
        engine.run_until(0.5)
        nodes["a"].send("hello")
        engine.run_until(2.0)
        chat = nodes["b"].chat
        fresh = chat._absorb_entries([["a", "hello", "lobby"],
                                      ["c", "missed", "lobby"]], "backlog")
        assert fresh == [["c", "missed", "lobby"]]
        assert chat.texts() == ["hello", "missed"]
        assert chat._keys == {("a", "hello"), ("c", "missed")}

    def test_history_pickles(self, plain_pair):
        # The history is plain data: it survives a process boundary.
        engine, network, nodes = plain_pair
        engine.run_until(0.5)
        nodes["a"].send("hello")
        engine.run_until(2.0)
        history = nodes["b"].chat.history
        assert pickle.loads(pickle.dumps(history)) == history


class TestLeave:
    def test_leave_excludes_node_from_view(self, plain_pair):
        engine, network, nodes = plain_pair
        engine.run_until(0.5)
        nodes["b"].chat.leave()
        engine.run_until(10.0)
        membership = nodes["a"].data_channel.session_named("membership")
        assert membership.view.members == ("a",)


class TestSentCount:
    def test_sent_count_tracks_stack_handoff(self, plain_pair):
        engine, network, nodes = plain_pair
        nodes["a"].send("one")  # queued (no view yet): not yet handed over
        assert nodes["a"].chat.sent_count == 0
        engine.run_until(2.0)
        assert nodes["a"].chat.sent_count == 1  # flushed on view install
        nodes["a"].send("two")
        assert nodes["a"].chat.sent_count == 2
