"""Common machinery shared by the suite's sessions."""

from __future__ import annotations

from typing import Any, Optional

from repro.kernel.events import ChannelInit, Event
from repro.kernel.layer import Layer
from repro.kernel.message import Message
from repro.kernel.session import Session
from repro.protocols.events import GROUP_DEST, View, ViewEvent


def parse_member_list(raw: Any) -> tuple[str, ...]:
    """Parse a member list given as CSV text (XML) or an iterable."""
    if raw is None:
        return ()
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",")]
        return tuple(sorted(part for part in parts if part))
    return tuple(sorted(str(member) for member in raw))


class GroupSession(Session):
    """Base session for group-aware layers.

    Tracks the node's own address (stamped on the channel by the transport
    during ``ChannelInit``) and the current view.  Subclasses override
    :meth:`on_channel_init` / :meth:`on_view` instead of re-implementing the
    bookkeeping.

    Layer parameters understood here:

    * ``members`` — bootstrap membership as CSV (e.g. ``"a,b,c"``).

    The group identifier is the channel name.
    """

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.local: Optional[str] = None
        self.group: str = ""
        self.members: tuple[str, ...] = parse_member_list(
            layer.params.get("members"))
        self.view: Optional[View] = None

    # -- bookkeeping hooks -----------------------------------------------------

    def handle(self, event: Event) -> None:
        if isinstance(event, ChannelInit):
            self._absorb_init(event)
            self.on_channel_init(event)
            if event._armed:
                event.go()
            return
        if isinstance(event, ViewEvent):
            self._absorb_view(event.view)
            self.on_view(event)
            if event._armed:
                event.go()
            return
        self.on_event(event)

    def _absorb_init(self, event: Event) -> None:
        channel = event.channel
        if channel is not None and channel.local_address is not None:
            self.local = channel.local_address
        if not self.group and channel is not None:
            self.group = channel.name

    def _absorb_view(self, view: View) -> None:
        self.view = view
        self.members = view.members

    # -- subclass extension points ----------------------------------------------

    def on_channel_init(self, event: Event) -> None:
        """Called on ``ChannelInit`` after address/group bookkeeping."""

    def on_view(self, event: ViewEvent) -> None:
        """Called when a view event passes through (state already updated)."""

    def on_event(self, event: Event) -> None:
        """Called for every other event; default is pass-through."""
        event.go()

    # -- helpers ---------------------------------------------------------------------

    def arm_on_demand(self, handle, interval: float, tag: Any, channel):
        """Return a live rearm-on-fire one-shot loop handle.

        The shared half of the arm-on-demand timer pattern (reliable's
        gap scan, fec's give-up sweep): hand the current handle back if it
        is still live, else arm a fresh constant-interval one-shot.  A
        *cancelled* handle counts as idle — channel teardown cancels every
        live timer, so a session re-used after a reconfiguration must be
        able to re-arm on its new channel.  The caller's fire handler
        decides per fire whether the loop continues (stop with
        :meth:`stop_timer`).
        """
        if handle is None or handle.cancelled:
            handle = self.set_backoff_timer(interval, tag=tag, factor=1.0,
                                            channel=channel)
        return handle

    @staticmethod
    def stop_timer(handle):
        """Cancel ``handle`` (if live) and return the cleared slot."""
        if handle is not None:
            handle.cancel()
        return None

    #: ``(members, local, others)`` of the last :meth:`others` call.
    _others: Optional[tuple] = None

    def others(self) -> tuple[str, ...]:
        """Current members excluding this node: one tuple per ``members``
        tuple and ``local``, so a caller may tell a change by identity."""
        members, local = self.members, self.local
        cached = self._others
        if cached is None or cached[0] is not members or cached[1] != local:
            cached = self._others = (members, local, tuple(
                member for member in members if member != local))
        return cached[2]

    def is_group_dest(self, event: Event) -> bool:
        dest = getattr(event, "dest", None)
        return dest == GROUP_DEST

    @staticmethod
    def payload_of(event: Any) -> dict:
        """The dict payload of a control message."""
        payload = event.message.payload
        assert isinstance(payload, dict), f"expected dict payload, got {payload!r}"
        return payload

    @staticmethod
    def control_message(cls: type, payload: dict, dest: Any,
                        source: Any = None):
        """Build a control event of type ``cls`` with a dict payload."""
        return cls(message=Message(payload=payload), source=source, dest=dest)
