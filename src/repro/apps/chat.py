"""The multi-user chat application (paper §4).

*"Each group of users, defined from their interests, is supported by a
different multicast group.  The application relies on the Appia group
communication protocol suite to exchange data among the users."*

:class:`ChatSession` is the top-of-stack application layer: it exposes a
``send``/callback API, survives reconfiguration (its session is preserved
across stack swaps via the ``app`` session label) and queues outgoing
messages while the stack is blocked or being replaced — the user never
observes the adaptation, which is the transparency the paper argues for.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.kernel.events import ChannelClose, Direction, Event
from repro.kernel.layer import Layer
from repro.kernel.message import Message
from repro.kernel.registry import register_layer
from repro.protocols.base import GroupSession
from repro.protocols.events import (GROUP_DEST, ApplicationMessage,
                                    BlockEvent, LeaveRequestEvent,
                                    QuiescentEvent, View, ViewEvent)


@dataclass(frozen=True, slots=True)
class ChatDelivery:
    """One message as seen by a chat user."""

    source: str
    text: str
    room: str
    time: float


class _Sparse:
    """A field most rows leave at its default: the rows that set it, in
    ascending order (rows are only ever appended), and their values."""

    __slots__ = ("rows", "values")

    def __init__(self) -> None:
        self.rows = array("q")
        self.values: list = []

    def add(self, row: int, value: Any) -> None:
        self.rows.append(row)
        self.values.append(value)

    def get(self, row: int, default: Any) -> Any:
        rows = self.rows
        if not rows:
            return default
        at = bisect_left(rows, row)
        if at < len(rows) and rows[at] == row:
            return self.values[at]
        return default


class ChatHistory:
    """Everything a session delivered, one row per delivery, in columns.

    ``source`` and ``text`` are lists of references to strings that
    already exist (the delivered payload's), ``time`` is an
    ``array('d')``: a flat delivery costs three column slots, about 26 B
    with over-allocation, where a :class:`ChatDelivery` and its boxed
    time cost about 121 B.  A room other than :attr:`room`, which most
    rows leave at its default, is a sparse column keyed by row.

    Reads keep the list API — ``len``, iteration, ``[i]``, slices,
    ``==`` (against another history or a list of deliveries) and pickle
    — and each yields a :class:`ChatDelivery` built at that moment.
    """

    def __init__(self, room: str) -> None:
        #: The room of every row that records none of its own.
        self.room = room
        self.source: list[str] = []
        self.text: list[str] = []
        self.time = array("d")
        self._room = _Sparse()

    def append(self, source: str, text: str, room: str,
               time: float) -> None:
        """Add one delivery as a row (fields as in :class:`ChatDelivery`)."""
        if room != self.room:
            self._room.add(len(self.text), room)
        self.source.append(source)
        self.text.append(text)
        self.time.append(time)

    def room_at(self, row: int) -> str:
        return self._room.get(row, self.room)

    def _delivery(self, row: int) -> ChatDelivery:
        return ChatDelivery(self.source[row], self.text[row],
                            self.room_at(row), self.time[row])

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self) -> Iterator[ChatDelivery]:
        return map(self._delivery, range(len(self.text)))

    def __getitem__(self, index):
        rows = range(len(self.text))[index]  # bounds, negatives, slices
        if isinstance(rows, range):
            return [self._delivery(row) for row in rows]
        return self._delivery(rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ChatHistory, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  (mutable, like a list)

    def __repr__(self) -> str:
        return f"ChatHistory({self.room!r}, {list(self)!r})"


class ChatSession(GroupSession):
    """Application endpoint of one chat room (= one multicast group)."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.room: str = layer.params.get("room", "lobby")
        self.ready = False
        self.history = ChatHistory(self.room)
        self._outbox: list[str] = []
        self.on_message: Optional[Callable[[ChatDelivery], None]] = None
        self.on_view_change: Optional[Callable[[View], None]] = None
        #: Messages handed to the stack (diagnostics / workload accounting).
        self.sent_count = 0

    # -- user API ---------------------------------------------------------------

    def send(self, text: str) -> None:
        """Send ``text`` to the room; queued while the stack is unavailable."""
        if not self.ready or not self.channels:
            self._outbox.append(text)
            return
        self._transmit(text)

    def leave(self) -> None:
        """Ask the group to exclude this node."""
        self.send_down(LeaveRequestEvent())

    def texts(self) -> list[str]:
        """All delivered message bodies, in delivery order."""
        return list(self.history.text)

    # -- protocol side -------------------------------------------------------------

    def on_view(self, event: ViewEvent) -> None:
        self.ready = True
        if self.on_view_change is not None:
            self.on_view_change(event.view)
        self._flush_outbox()

    def on_event(self, event: Event) -> None:
        if isinstance(event, ApplicationMessage) and \
                event.direction is Direction.UP:
            self._deliver(event)
            return
        if isinstance(event, (BlockEvent, QuiescentEvent)):
            self.ready = False
            return  # top of stack: nowhere further up to forward
        if isinstance(event, ChannelClose):
            self.ready = False
            event.go()
            return
        event.go()

    # -- internals --------------------------------------------------------------------

    def _transmit(self, text: str) -> None:
        event = ApplicationMessage(
            message=Message(payload={"room": self.room, "text": text}),
            dest=GROUP_DEST)
        self.sent_count += 1
        self.send_down(event)

    def _flush_outbox(self) -> None:
        queued, self._outbox = self._outbox, []
        for text in queued:
            self._transmit(text)

    def _now(self) -> float:
        if self.channels:
            return self.channels[0].kernel.clock.now()
        return 0.0

    def _deliver(self, event: ApplicationMessage) -> None:
        payload = event.message.payload
        source, text = event.source, payload["text"]
        room, time = payload.get("room", self.room), self._now()
        self.history.append(source, text, room, time)
        if self.on_message is not None:
            self.on_message(ChatDelivery(source, text, room, time))


@register_layer
class ChatAppLayer(Layer):
    """Top-of-stack chat application layer.

    Parameter: ``room`` (room name carried in every message).
    """

    layer_name = "chat_app"
    accepted_events = (ApplicationMessage, ViewEvent, BlockEvent,
                       QuiescentEvent)
    provided_events = (ApplicationMessage, LeaveRequestEvent)
    session_class = ChatSession
