"""Heartbeat failure detector: one channel's share of the node service.

The node's evidence of life and its beacons live on the session every
channel shares, :class:`~repro.kernel.transport.DatagramTransportSession`.
Each channel's :class:`HeartbeatSession` suspects a member without
evidence for ``suspect_timeout``; a beacon listing the channel unsuspects
a suspected member and reports a live node outside the view a stranger.
"""

from __future__ import annotations

from repro.kernel.damping import WindowBudget
from repro.kernel.events import Event, TimerEvent
from repro.kernel.layer import Layer
from repro.kernel.registry import register_layer
from repro.kernel.transport import DatagramTransportSession
from repro.protocols.base import GroupSession
from repro.protocols.events import (PathChangedEvent, StrangerEvent,
                                    SuspectEvent, UnsuspectEvent, ViewEvent)

_EXPIRY_TIMER = "hb-expiry"

#: ``suspect_timeout`` in beacon intervals.  On a lossy wireless link
#: (p ≈ 0.15-0.3 per hop) a 3-beacon margin yields false suspicion — and
#: hence wrongful exclusion — with near-certainty over a long run.  Six
#: consecutive losses at p = 0.3 is ~0.07 % per window.
_SUSPECT_INTERVALS = 6.0
#: Path-change resets admitted per ``suspect_timeout``.  A relay
#: *flapping* under bursty loss causes one per oscillation, and every
#: reset pushes all observation windows back to zero, so a member that
#: went silent meanwhile would never be suspected (suspicion starvation).
#: The ration bounds starvation to roughly (limit + 1) timeouts.
_PATH_RESET_LIMIT = 3


class HeartbeatSession(GroupSession):
    """Suspicion bookkeeping of one channel's view."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.interval: float = float(layer.params.get("interval", 5.0))
        self.suspect_timeout: float = _SUSPECT_INTERVALS * self.interval
        self.path_reset_budget = WindowBudget(
            limit=_PATH_RESET_LIMIT, window=self.suspect_timeout,
            cooldown=self.suspect_timeout)
        #: Start of each member's observation window (view installation or
        #: path reset); silence runs from the later of this and the node
        #: service's last evidence of the member.
        self.floor: dict[str, float] = {}
        self.suspected: set[str] = set()
        #: A lower bound on every unsuspected member's evidence instant
        #: (the oldest one at the last full scan; evidence only grows):
        #: no member can have expired while ``now - oldest`` is within
        #: the timeout.  Whatever adds a candidate resets it.
        self._oldest = float("-inf")
        self._service = self._channel = None

    def on_channel_init(self, event: Event) -> None:
        channel = self._channel = event.channel
        self._service = DatagramTransportSession.of(channel)
        self._service.supervise(channel.name, self)
        self.set_backoff_timer(self.interval, tag=_EXPIRY_TIMER, factor=1.0,
                               channel=channel)

    def on_view(self, event: ViewEvent) -> None:
        now = self._now()
        self.floor = {member: now for member in event.view.members}
        self._oldest = float("-inf")
        if self.local in event.joiners:
            # Re-admitted: membership drops what this node suspected while
            # outside the view, so the detector must be able to raise any
            # of it again — a suspicion kept here is never re-sent.
            self.suspected.clear()
        else:
            self.suspected &= set(event.view.members)

    def on_event(self, event: Event) -> None:
        if isinstance(event, TimerEvent):
            if event.tag == _EXPIRY_TIMER and self.local is not None:
                self._check_expiry()
            return
        if isinstance(event, PathChangedEvent):
            # The dissemination path changed: restart the observation
            # window of everyone not already suspected, within budget.
            now = self._now()
            if self.path_reset_budget.admit(now):
                for member in self.others():
                    if member not in self.suspected:
                        self.floor[member] = now
            return
        event.go()

    def beacon(self, member: str) -> None:
        """A beacon from ``member`` listed this channel's port: its view
        of this channel includes this node."""
        channel = self._channel
        if self.view is not None and not self.view.includes(member):
            # An excluded member back up, a healed partition or a booting
            # joiner: membership above decides its fate.
            self.send_up(StrangerEvent(member), channel=channel)
        elif member in self.suspected:
            self.suspected.discard(member)
            self._oldest = float("-inf")
            # Up to membership, down to the relay choice.
            self.send_up(UnsuspectEvent(member), channel=channel)
            self.send_down(UnsuspectEvent(member), channel=channel)

    def _now(self) -> float:
        return self._channel.kernel.now()

    def _check_expiry(self) -> None:
        """Suspect at most one member per tick — the longest-silent one.

        When a Mecho relay dies everything relayed dies with it; suspecting
        the single most-silent member first lets the dissemination layer's
        :class:`PathChangedEvent` reset the other windows before the next
        tick (a second crashed member is simply suspected a tick later).

        A tick within the timeout of :attr:`_oldest` scans nothing: every
        unsuspected member's evidence is at least that recent.
        """
        now = self._now()
        if now - self._oldest <= self.suspect_timeout:
            return
        last_heard = self._service.last_heard
        expired: list[tuple[float, str]] = []
        oldest = float("inf")
        for member in self.others():
            if member in self.suspected:
                continue
            floor = self.floor.get(member)
            if floor is None:
                floor = self.floor[member] = now
            last = max(floor, last_heard(member))
            if now - last > self.suspect_timeout:
                expired.append((last, member))
            elif last < oldest:
                oldest = last
        if not expired:
            self._oldest = oldest
            return
        __, member = min(expired)
        self.suspected.add(member)
        # Up to membership (view change), down to the relay choice.
        self.send_up(SuspectEvent(member), channel=self._channel)
        self.send_down(SuspectEvent(member), channel=self._channel)


@register_layer
class HeartbeatLayer(Layer):
    """Heartbeat-based failure detection.

    Parameters: ``interval`` (beacon period, seconds; a member silent for
    ``suspect_timeout`` = ``6 × interval`` is suspected).
    """

    layer_name = "heartbeat"
    accepted_events = (PathChangedEvent, TimerEvent, ViewEvent)
    provided_events = (SuspectEvent, UnsuspectEvent, StrangerEvent)
    session_class = HeartbeatSession
