"""The chat application layer: queueing, callbacks, rooms, leave."""

from __future__ import annotations

import pickle
import tracemalloc

import pytest

from repro.apps.chat import ChatDelivery, ChatHistory
from repro.core import build_plain_group
from repro.kernel.message import Message
from repro.protocols.events import ApplicationMessage
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


#: Deliveries the reference list and the columns are both built from:
#: flat rows, and rows setting each rare field.
DELIVERIES = [
    ChatDelivery("a", "one", "lobby", 1.0),
    ChatDelivery("b", "two", "lobby", 1.5, n=3),
    ChatDelivery("c", "three", "ops", 2.0, marker="fed", n=9,
                 fed_cell="cell-1"),
    ChatDelivery("a", "four", "lobby", 2.5, marker="backlog"),
    ChatDelivery("b", "five", "lobby", 3.0),
    ChatDelivery("d", "six", "ops", 3.5, marker="recovered"),
]


def columns_of(deliveries) -> ChatHistory:
    history = ChatHistory("lobby")
    for d in deliveries:
        history.append(d.source, d.text, d.room, d.time, d.marker, d.n,
                       d.fed_cell)
    return history


def deliver(chat, source: str, payload: dict) -> None:
    """Hand ``chat`` one delivery through its delivery path."""
    chat._deliver(ApplicationMessage(message=Message(payload=payload),
                                     source=source))


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

    def test_federated_delivery_round_trips(self, plain_pair):
        engine, network, nodes = plain_pair
        engine.run_until(0.5)
        chat = nodes["b"].chat
        deliver(chat, "gw", {"room": "ops", "text": "far",
                             "fed": ["cell-2", "zed", 7], "src": "zed"})
        deliver(chat, "a", {"room": "lobby", "text": "near", "n": 4})
        now = engine.now()
        assert chat.history[-2:] == [
            ChatDelivery("zed", "far", "ops", now, marker="fed", n=7,
                         fed_cell="cell-2"),
            ChatDelivery("a", "near", "lobby", now, n=4)]

    def test_export_and_adopt_keep_the_history(self, plain_pair):
        engine, network, nodes = plain_pair
        engine.run_until(0.5)
        nodes["a"].send("hello")
        engine.run_until(2.0)
        source = nodes["b"].chat
        deliver(source, "gw", {"room": "ops", "text": "far",
                               "fed": ["cell-2", "zed", 7], "src": "zed"})
        before = list(source.history)
        state = source.export_state()
        deliver(source, "a", {"room": "lobby", "text": "later"})
        target = nodes["a"].chat
        target.adopt(state)
        assert target.history == before
        assert target.texts() == ["hello", "far"]
        assert target._known() == {("a", "hello"), ("zed", "far")}

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
        assert chat._keys is None
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
