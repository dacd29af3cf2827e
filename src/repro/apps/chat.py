"""The multi-user chat application (paper §4).

*"Each group of users, defined from their interests, is supported by a
different multicast group.  The application relies on the Appia group
communication protocol suite to exchange data among the users."*

:class:`ChatSession` is the top-of-stack application layer: it exposes a
``send``/callback API, survives reconfiguration (its session is preserved
across stack swaps via the ``app`` session label) and queues outgoing
messages while the stack is blocked or being replaced — the user never
observes the adaptation, which is the transparency the paper argues for.

Federation support (all opt-in, off in the flat single-group stack):

* ``fed_seq`` stamps every outgoing message with a per-sender sequence
  number so the federation router can dedup and order cross-cell
  streams by ``(origin_cell, sender, n)``;
* :meth:`inject_federated` lets a cell gateway re-publish a message that
  originated in another cell; such deliveries carry ``marker="fed"``;
* ``backlog_n`` + :attr:`backlog_server` make the gateway replay the
  last-N history to joiners during cell admission (``marker="backlog"``);
* ``reconcile`` runs one anti-entropy pass through the view coordinator
  after a view gains joiners — e.g. a partition merge — so one-sided
  deliveries converge (``marker="recovered"``).

Deliveries with a non-empty marker are history *repair*: they are
deduplicated against everything already delivered, and the ordering
invariants exempt them (they arrive outside the cell's total order).
Unmarked deliveries keep the exact pre-federation semantics.
"""

from __future__ import annotations

import copy
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
                                    BlockEvent, ChatSyncMessage,
                                    LeaveRequestEvent, QuiescentEvent, View,
                                    ViewEvent)


@dataclass(frozen=True, slots=True)
class ChatDelivery:
    """One message as seen by a chat user.

    ``marker`` distinguishes how the message reached this node: ``""`` is
    a normal in-group delivery, ``"fed"`` a cross-cell injection,
    ``"backlog"`` a gateway-served admission replay, ``"recovered"`` an
    anti-entropy repair.  ``n`` is the sender's federation sequence
    number when known, ``fed_cell`` the origin cell of a ``"fed"``
    delivery.
    """

    source: str
    text: str
    room: str
    time: float
    marker: str = ""
    n: Optional[int] = None
    fed_cell: str = ""


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
    time cost about 121 B.  The fields most rows leave at their default
    — a room other than :attr:`room`, a ``marker``, an ``n`` and a
    ``fed_cell`` — are sparse columns keyed by row; a federated group
    stamps ``n`` on every row, which costs two more slots.

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
        self._marker = _Sparse()
        self._n = _Sparse()
        self._fed_cell = _Sparse()

    def append(self, source: str, text: str, room: str, time: float,
               marker: str = "", n: Optional[int] = None,
               fed_cell: str = "") -> None:
        """Add one delivery as a row (fields as in :class:`ChatDelivery`)."""
        row = len(self.text)
        self.source.append(source)
        self.text.append(text)
        self.time.append(time)
        if room != self.room:
            self._room.add(row, room)
        if marker:
            self._marker.add(row, marker)
        if n is not None:
            self._n.add(row, n)
        if fed_cell:
            self._fed_cell.add(row, fed_cell)

    def room_at(self, row: int) -> str:
        return self._room.get(row, self.room)

    def entry(self, row: int) -> list:
        """Row ``row`` as a ``[source, text, room]`` repair entry."""
        return [self.source[row], self.text[row], self.room_at(row)]

    def _delivery(self, row: int) -> ChatDelivery:
        return ChatDelivery(self.source[row], self.text[row],
                            self.room_at(row), self.time[row],
                            self._marker.get(row, ""),
                            self._n.get(row, None),
                            self._fed_cell.get(row, ""))

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
        self.fed_seq: bool = bool(layer.params.get("fed_seq", False))
        self.backlog_n: int = int(layer.params.get("backlog_n", 0))
        self.reconcile: bool = bool(layer.params.get("reconcile", False))
        #: Set by the federation runner on the cell gateway: this node
        #: serves the admission backlog (meaningless unless ``backlog_n``).
        self.backlog_server = False
        self.ready = False
        self.history = ChatHistory(self.room)
        self._outbox: list[str] = []
        self._fed_outbox: list[tuple[str, str, int, str, str]] = []
        self.on_message: Optional[Callable[[ChatDelivery], None]] = None
        self.on_view_change: Optional[Callable[[View], None]] = None
        #: Messages handed to the stack (diagnostics / workload accounting).
        self.sent_count = 0
        #: Per-sender federation sequence counter (own sends only).
        self._seq = 0
        #: (source, text) of everything delivered — dedup set for repair
        #: paths (normal deliveries append unconditionally, as before).
        #: A second copy of ``history``, so it is built on the first
        #: lookup (see :meth:`_known`) and maintained from then on: a
        #: federated group builds it at its first delivery, the flat
        #: stack only if a repair path ever runs.
        self._keys: Optional[set[tuple[str, str]]] = None
        #: (origin_cell, sender, n) of federated injections already seen.
        self._fed_seen: set[tuple[str, str, int]] = set()
        #: Highest n delivered per (origin_cell, sender) stream.  A
        #: gateway handover can leave the old and the new gateway both
        #: broadcasting injections for a moment; the two are different
        #: in-cell senders, so nothing below orders them.  Stale entries
        #: (n at or below the high-water mark) are dropped here — the
        #: federation stream is best-effort, and a gap is recoverable by
        #: anti-entropy where out-of-order delivery is not.
        self._fed_high: dict[tuple[str, str], int] = {}
        #: Everyone ever seen in a view.  The data channel is redeployed
        #: with a fresh generation on each membership change, so its
        #: bootstrap ViewEvents carry no joiner delta — only this session
        #: survives generations, so it computes the delta itself.
        self._members_seen: set[str] = set()

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

    # -- federation API ----------------------------------------------------------

    def inject_federated(self, cell: str, sender: str, n: int, room: str,
                         text: str) -> None:
        """Re-publish a message from another cell into this group.

        Called on the cell gateway by the federation router glue.  The
        message travels the cell's own stack (reliable, ordered) and every
        member delivers it with ``marker="fed"`` and the *original*
        sender as source, deduplicated by ``(cell, sender, n)``.
        """
        if not self.ready or not self.channels:
            self._fed_outbox.append((cell, sender, n, room, text))
            return
        event = ApplicationMessage(
            message=Message(payload={"room": room, "text": text,
                                     "fed": [cell, sender, n],
                                     "src": sender}),
            dest=GROUP_DEST)
        self.send_down(event)

    def export_state(self) -> dict:
        """Snapshot carried across a cell re-formation (split/merge)."""
        return {"history": copy.deepcopy(self.history), "seq": self._seq,
                "sent": self.sent_count, "fed_seen": set(self._fed_seen),
                "fed_high": dict(self._fed_high),
                "seen_members": set(self._members_seen),
                "outbox": list(self._outbox),
                "fed_outbox": list(self._fed_outbox)}

    def adopt(self, state: dict) -> None:
        """Adopt a re-formation snapshot (the inverse of export_state).

        The node keeps its delivered history and continues its federation
        sequence numbering, so per-stream FIFO holds across cell churn.
        """
        self.history = copy.deepcopy(state["history"])
        self._keys = None
        self._seq = state["seq"]
        self.sent_count = state["sent"]
        self._fed_seen = set(state["fed_seen"])
        self._fed_high = dict(state.get("fed_high", {}))
        self._outbox = list(state["outbox"]) + self._outbox
        self._fed_outbox = list(state["fed_outbox"]) + self._fed_outbox
        self._members_seen = set(state.get("seen_members", ()))
        if self.ready and self.channels:
            # A re-formation boot installs its bootstrap view before the
            # snapshot lands; retransmit what the old instance had queued
            # and greet the roster members the old instance never saw —
            # a merge brings in a whole other cell's worth of newcomers
            # whose histories diverged, which is exactly what the backlog
            # and anti-entropy machinery reconciles.
            self._flush_outbox()
            if self.view is not None:
                newcomers = tuple(sorted(
                    set(self.view.members) - self._members_seen
                    - {self.local}))
                self._members_seen |= set(self.view.members)
                if newcomers:
                    self._serve_backlog(newcomers)
                    self._start_reconcile(self.view)

    # -- protocol side -------------------------------------------------------------

    def on_view(self, event: ViewEvent) -> None:
        self.ready = True
        if self.on_view_change is not None:
            self.on_view_change(event.view)
        members = set(event.view.members)
        joiners = tuple(j for j in event.joiners if j != self.local)
        if not joiners:
            # Redeployed-generation bootstrap view: recover the joiner
            # delta from the membership this session has already seen.
            joiners = tuple(sorted(
                members - self._members_seen - {self.local}))
        first = not self._members_seen
        self._members_seen |= members
        if joiners and not first:
            if set(joiners) == members - {self.local}:
                # Everyone else is new to us: *we* are the one being
                # admitted.  Pull the backlog instead of relying on the
                # gateway's push — the push races our switch to the newly
                # deployed channel generation and can land on the unbound
                # old port.  Both directions run (the gateway still
                # pushes from its side); (source, text) dedup absorbs the
                # overlap, and whichever side installed its view last
                # gets through.
                self._request_backlog()
            else:
                self._serve_backlog(joiners)
            self._start_reconcile(event.view)
        self._flush_outbox()

    def on_event(self, event: Event) -> None:
        if isinstance(event, ApplicationMessage) and \
                event.direction is Direction.UP:
            self._deliver(event)
            return
        if isinstance(event, ChatSyncMessage) and \
                event.direction is Direction.UP:
            self._on_sync(event)
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
        payload: dict = {"room": self.room, "text": text}
        if self.fed_seq:
            self._seq += 1
            payload["n"] = self._seq
        event = ApplicationMessage(message=Message(payload=payload),
                                   dest=GROUP_DEST)
        self.sent_count += 1
        self.send_down(event)

    def _flush_outbox(self) -> None:
        queued, self._outbox = self._outbox, []
        for text in queued:
            self._transmit(text)
        fed_queued, self._fed_outbox = self._fed_outbox, []
        for cell, sender, n, room, text in fed_queued:
            self.inject_federated(cell, sender, n, room, text)

    def _now(self) -> float:
        if self.channels:
            return self.channels[0].kernel.clock.now()
        return 0.0

    def _known(self) -> set[tuple[str, str]]:
        """The ``(source, text)`` dedup set, built from ``history`` on
        first use."""
        if self._keys is None:
            history = self.history
            self._keys = set(zip(history.source, history.text))
        return self._keys

    def _append(self, source: str, text: str, room: str, time: float,
                marker: str = "", n: Optional[int] = None,
                fed_cell: str = "") -> None:
        self.history.append(source, text, room, time, marker, n, fed_cell)
        if self._keys is not None:
            self._keys.add((source, text))
        if self.on_message is not None:
            self.on_message(ChatDelivery(source, text, room, time, marker,
                                         n, fed_cell))

    def _deliver(self, event: ApplicationMessage) -> None:
        payload = event.message.payload
        fed = payload.get("fed")
        if fed is not None:
            cell, sender, n = fed[0], fed[1], fed[2]
            key = (cell, sender, n)
            if key in self._fed_seen:
                return
            self._fed_seen.add(key)
            stream = (cell, sender)
            if n <= self._fed_high.get(stream, -1):
                return  # stale injection from a superseded gateway
            source = payload.get("src", event.source)
            if (source, payload["text"]) in self._known():
                self._fed_high[stream] = n
                return
            self._fed_high[stream] = n
            self._append(source, payload["text"],
                         payload.get("room", self.room), self._now(),
                         marker="fed", n=n, fed_cell=cell)
            return
        if self.fed_seq and (event.source, payload["text"]) in self._known():
            # Scoped (federated) group: a repair path — admission
            # backlog, anti-entropy — may have replayed this message
            # moments before the group's own delivery lands.  The flat
            # stack has no repair paths, so its unmarked deliveries keep
            # appending unconditionally, exactly as before.
            return
        self._append(event.source, payload["text"],
                     payload.get("room", self.room), self._now(),
                     n=payload.get("n"))

    # -- backlog replay ----------------------------------------------------------

    def _request_backlog(self) -> None:
        if self.backlog_n <= 0:
            return
        self.send_down(self.control_message(
            ChatSyncMessage, {"kind": "backlog_request"}, dest=GROUP_DEST))

    def _serve_backlog(self, joiners: tuple[str, ...]) -> None:
        if not self.backlog_server or self.backlog_n <= 0 or not self.history:
            return
        history = self.history
        entries = [history.entry(row) for row in
                   range(max(len(history) - self.backlog_n, 0),
                         len(history))]
        for joiner in joiners:
            self.send_down(self.control_message(
                ChatSyncMessage, {"kind": "backlog", "entries": entries},
                dest=joiner))

    # -- anti-entropy ------------------------------------------------------------

    def _start_reconcile(self, view: View) -> None:
        if not self.reconcile or not view.members:
            return
        coordinator = view.coordinator
        if self.local == coordinator:
            return  # the hub waits for digests
        keys = [[source, text] for source, text in self._entry_keys()]
        self.send_down(self.control_message(
            ChatSyncMessage, {"kind": "ae_digest", "keys": keys},
            dest=coordinator))

    def _entry_keys(self) -> list[tuple[str, str]]:
        return list(zip(self.history.source, self.history.text))

    def _entries_by_key(self) -> dict[tuple[str, str], int]:
        """``(source, text)`` -> the first history row delivering it."""
        table: dict[tuple[str, str], int] = {}
        for row, key in enumerate(self._entry_keys()):
            table.setdefault(key, row)
        return table

    def _on_sync(self, event: ChatSyncMessage) -> None:
        payload = self.payload_of(event)
        kind = payload.get("kind")
        if kind == "backlog":
            self._absorb_entries(payload.get("entries", ()), "backlog")
        elif kind == "backlog_request":
            if event.source != self.local:
                self._serve_backlog((event.source,))
        elif kind == "ae_digest":
            self._on_ae_digest(event.source, payload)
        elif kind == "ae_want":
            self._on_ae_want(event.source, payload)
        elif kind == "ae_push":
            self._on_ae_push(event.source, payload)

    def _absorb_entries(self, entries: Any, marker: str) -> list[list]:
        """Append repair entries not yet delivered; returns the fresh ones."""
        fresh: list[list] = []
        now = self._now()
        known = self._known()
        for entry in entries:
            source, text, room = entry[0], entry[1], entry[2]
            if (source, text) in known:
                continue
            fresh.append([source, text, room])
            self._append(source, text, room, now, marker=marker)
        return fresh

    def _on_ae_digest(self, sender: Any, payload: dict) -> None:
        theirs = {(key[0], key[1]) for key in payload.get("keys", ())}
        mine = self._entries_by_key()
        missing_there = [self.history.entry(row)
                         for key, row in mine.items() if key not in theirs]
        if missing_there:
            self.send_down(self.control_message(
                ChatSyncMessage,
                {"kind": "ae_push", "entries": missing_there}, dest=sender))
        want = sorted(key for key in theirs if key not in mine)
        if want:
            self.send_down(self.control_message(
                ChatSyncMessage,
                {"kind": "ae_want", "keys": [list(key) for key in want]},
                dest=sender))

    def _on_ae_want(self, sender: Any, payload: dict) -> None:
        mine = self._entries_by_key()
        entries = []
        for key in payload.get("keys", ()):
            row = mine.get((key[0], key[1]))
            if row is not None:
                entries.append(self.history.entry(row))
        if entries:
            self.send_down(self.control_message(
                ChatSyncMessage, {"kind": "ae_push", "entries": entries},
                dest=sender))

    def _on_ae_push(self, sender: Any, payload: dict) -> None:
        fresh = self._absorb_entries(payload.get("entries", ()), "recovered")
        # The hub relays entries it just learned to the whole group, so
        # members on the *other* side of a former partition converge too
        # (everyone else dedups by (source, text)).
        if fresh and self.view is not None and \
                self.local == self.view.coordinator:
            self.send_down(self.control_message(
                ChatSyncMessage, {"kind": "ae_push", "entries": fresh},
                dest=GROUP_DEST))


@register_layer
class ChatAppLayer(Layer):
    """Top-of-stack chat application layer.

    Parameters: ``room`` (room name carried in every message),
    ``fed_seq`` (stamp per-sender sequence numbers for federation),
    ``backlog_n`` (last-N admission backlog served by the gateway),
    ``reconcile`` (anti-entropy pass when a view gains joiners).
    """

    layer_name = "chat_app"
    accepted_events = (ApplicationMessage, ChatSyncMessage, ViewEvent,
                       BlockEvent, QuiescentEvent)
    provided_events = (ApplicationMessage, ChatSyncMessage,
                       LeaveRequestEvent)
    session_class = ChatSession
