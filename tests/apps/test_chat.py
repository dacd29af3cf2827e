"""The chat application layer: queueing, callbacks, rooms, leave."""

from __future__ import annotations

import pickle
import tracemalloc

import pytest

from repro.apps.chat import ChatDelivery, ChatHistory
from repro.core import build_plain_group
from repro.kernel import Direction
from repro.kernel.message import Message
from repro.protocols import TriggerViewChangeEvent
from repro.protocols.events import ApplicationMessage, BlockEvent
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


    def test_sends_while_blocked_wait_for_the_next_view(self, plain_pair):
        engine, network, nodes = plain_pair
        engine.run_until(0.5)
        chat = nodes["a"].chat
        chat.handle(BlockEvent(1))  # a flush began: stop sending
        assert chat.ready is False
        chat.send("held")
        assert chat.sent_count == 0
        engine.run_until(2.0)
        assert nodes["b"].chat.texts() == []
        nodes["a"].data_channel.insert(TriggerViewChangeEvent(),
                                       Direction.DOWN)
        engine.run_until(10.0)
        assert chat.ready is True
        assert nodes["b"].chat.texts() == ["held"]


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

    def test_a_delivery_naming_no_room_is_filed_under_the_session_room(
            self, plain_pair):
        engine, network, nodes = plain_pair
        engine.run_until(0.5)
        chat = nodes["b"].chat
        chat._deliver(ApplicationMessage(
            message=Message(payload={"text": "bare"}), source="a"))
        assert chat.history[-1] == ChatDelivery("a", "bare", "lobby",
                                                engine.now())

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
        assert not hasattr(chat.history[0], "__dict__")

    def test_history_pickles(self, plain_pair):
        # The history is plain data: it survives a process boundary.
        engine, network, nodes = plain_pair
        engine.run_until(0.5)
        nodes["a"].send("hello")
        engine.run_until(2.0)
        history = nodes["b"].chat.history
        assert pickle.loads(pickle.dumps(history)) == history


#: Deliveries the reference list and the columns are both built from:
#: rows in the history's own room, and rows in another (the rare field).
DELIVERIES = [
    ChatDelivery("a", "one", "lobby", 1.0),
    ChatDelivery("b", "two", "lobby", 1.5),
    ChatDelivery("c", "three", "ops", 2.0),
    ChatDelivery("a", "four", "lobby", 2.5),
    ChatDelivery("b", "five", "lobby", 3.0),
    ChatDelivery("d", "six", "ops", 3.5),
]


def columns_of(deliveries) -> ChatHistory:
    history = ChatHistory("lobby")
    for d in deliveries:
        history.append(d.source, d.text, d.room, d.time)
    return history


class TestChatHistory:
    def test_reads_match_the_list_form(self):
        history = columns_of(DELIVERIES)
        assert len(history) == len(DELIVERIES)
        assert list(history) == DELIVERIES
        for index in range(-len(DELIVERIES), len(DELIVERIES)):
            assert history[index] == DELIVERIES[index]
        for cut in (slice(None), slice(-3, None), slice(1, 4),
                    slice(None, None, 2), slice(None, None, -1),
                    slice(10, None)):
            assert history[cut] == DELIVERIES[cut]
        assert history == DELIVERIES and DELIVERIES == history
        assert history == columns_of(DELIVERIES)
        assert history != DELIVERIES[:-1]
        assert history != columns_of(DELIVERIES[::-1])
        with pytest.raises(IndexError):
            history[len(DELIVERIES)]
        with pytest.raises(IndexError):
            history[-len(DELIVERIES) - 1]

    def test_rare_fields_pickle(self):
        history = columns_of(DELIVERIES)
        back = pickle.loads(pickle.dumps(history))
        assert type(back) is ChatHistory
        assert back == DELIVERIES

    def test_a_flat_delivery_costs_under_40_bytes(self, plain_pair):
        """Rows, not objects: 50,000 flat deliveries through the session's
        delivery path hold at most 40 B each beyond the strings they
        share with their payloads (a ChatDelivery per row costs ~121 B)."""
        engine, network, nodes = plain_pair
        engine.run_until(0.5)
        chat = nodes["b"].chat
        events = [ApplicationMessage(
            message=Message(payload={"room": "lobby", "text": f"t{k}"}),
            source="a") for k in range(64)]
        count = 50_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(count):
                chat._deliver(events[k % len(events)])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(chat.history) == count
        assert held / count <= 40, f"{held / count:.1f} B per delivery"


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
