"""Event taxonomy of the group-communication protocol suite.

Two families:

* **wire events** — :class:`~repro.kernel.events.SendableEvent` subclasses
  that cross the simulated network.  :class:`ApplicationMessage` is the only
  *data* event; everything else is protocol control traffic (tagged
  ``traffic_class = "control"`` so the Figure 3 counters can break the
  totals down as in the paper's footnote 1).
* **local events** — plain :class:`~repro.kernel.events.Event` subclasses
  used for intra-stack signalling (view installation, blocking, failure
  suspicion, flush bookkeeping).  They never reach the transport.

Group addressing: an event with ``dest == GROUP_DEST`` is a multicast to the
current view; the bottom dissemination layer (best-effort multicast, Mecho,
gossip) translates it into transmissions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.kernel.events import Event, SendableEvent
from repro.kernel.transport import HeartbeatMessage  # noqa: F401  (re-export)

#: Destination sentinel meaning "every member of the current view".
GROUP_DEST = "__group__"


@dataclass(frozen=True)
class View:
    """A group view: an agreed, ordered membership snapshot.

    The coordinator is deterministically elected as the first member in
    identifier order — the paper notes the election *"can be trivially
    derived from the properties of the underlying group membership
    service"*.

    ``stamp`` is the installation's provenance — ``(announcer,
    incarnation)`` of the coordinator that announced it, or ``None`` for a
    bootstrap self-install.  Divergent lineages can burn through the same
    ``view_id`` independently (a zombie churning alone, a reconfiguration
    racing a suspicion flush), so the id alone does not identify a view
    instance; the stamp disambiguates, and the reliable layer folds it
    into its sequencing epoch.  Excluded from comparisons: two members of
    the same agreed view compare equal regardless of how each learned of
    it.
    """

    group: str
    view_id: int
    members: tuple[str, ...]
    stamp: Optional[tuple[str, int]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.members))
        object.__setattr__(self, "members", ordered)

    @property
    def coordinator(self) -> str:
        """Deterministically elected coordinator (lowest member id)."""
        if not self.members:
            raise ValueError(f"view {self.view_id} of {self.group!r} is empty")
        return self.members[0]

    def includes(self, member: str) -> bool:
        return member in self.members

    def without(self, *excluded: str) -> "View":
        """Successor view excluding ``excluded`` members."""
        remaining = tuple(m for m in self.members if m not in excluded)
        return View(self.group, self.view_id + 1, remaining)

    def refresh(self) -> "View":
        """Successor view with identical membership (used for quiescence)."""
        return View(self.group, self.view_id + 1, self.members)


# ---------------------------------------------------------------------------
# Wire events
# ---------------------------------------------------------------------------


class GroupSendableEvent(SendableEvent):
    """Base class of every message exchanged within the group."""


class SequencedEvent(GroupSendableEvent):
    """Messages that the reliable layer sequences (per-sender FIFO, NACK
    recovery) and that the view-synchrony cut covers."""


class ApplicationMessage(SequencedEvent):
    """Application payload — the only *data* traffic in the suite."""

    traffic_class = "data"


class OrderMessage(SequencedEvent):
    """Total-order layer: sequencer-assigned global order announcements."""

    traffic_class = "control"


class MembershipMessage(GroupSendableEvent):
    """View agreement and flush coordination (kind field in the payload)."""

    traffic_class = "control"


class NackMessage(GroupSendableEvent):
    """Reliable layer: request for missing sequence numbers (point-to-point)."""

    traffic_class = "control"


class RetransmissionMessage(GroupSendableEvent):
    """Reliable layer: replay of a stored message (point-to-point)."""

    traffic_class = "control"


class SyncMessage(GroupSendableEvent):
    """Reliable layer: a sender's high-water-mark advertisement.

    NACK-based recovery detects a gap only when a *later* message arrives —
    the last messages of a burst can be lost invisibly (the classic
    tail-loss problem of negative-acknowledgement schemes).  After a quiet
    period, a sender that transmitted anything advertises its highest
    sequence number so receivers can NACK a missing tail.
    """

    traffic_class = "control"


class StabilityMessage(GroupSendableEvent):
    """Reliable layer: one step of the store's stability round.

    A member's *report* (``{"from", "delivered", "epoch"}``) goes to the
    view coordinator; the coordinator's *stable* vector (``{"stable",
    "epoch"}``) goes to every other member.  A message at or below
    ``stable[sender]`` was delivered by the whole view, so no member can
    ever NACK it and every store may drop it.
    """

    traffic_class = "control"


class GossipMessage(GroupSendableEvent):
    """Epidemic dissemination rounds (wraps an application payload)."""

    traffic_class = "control"


class ParityMessage(GroupSendableEvent):
    """FEC layer: Reed–Solomon parity over a block of data messages."""

    traffic_class = "control"


class ContextMessage(GroupSendableEvent):
    """Cocaditem: a context snapshot sent to the control coordinator."""

    traffic_class = "control"


class CoreMessage(GroupSendableEvent):
    """Core: reconfiguration coordination on the control channel."""

    traffic_class = "control"


# ---------------------------------------------------------------------------
# Local events (never serialized)
# ---------------------------------------------------------------------------


class ViewEvent(Event):
    """A new view was installed; travels both up and down the stack.

    ``joiners`` lists members admitted from outside the previous view —
    layers that track per-member history (Core's reconfiguration numbering
    above all) must treat a listed *self* as a fresh start, because a
    re-admitted node's private history diverged from the group's.
    """

    def __init__(self, view: View, joiners: tuple[str, ...] = ()) -> None:
        super().__init__()
        self.view = view
        self.joiners = joiners


class BlockEvent(Event):
    """Flush started: stop sending new group messages until the next view."""

    def __init__(self, view_id: int) -> None:
        super().__init__()
        self.view_id = view_id


class SuspectEvent(Event):
    """The failure detector suspects a member."""

    def __init__(self, member: str) -> None:
        super().__init__()
        self.member = member


class UnsuspectEvent(Event):
    """A previously suspected member proved to be alive."""

    def __init__(self, member: str) -> None:
        super().__init__()
        self.member = member


class StrangerEvent(Event):
    """The failure detector heard a beacon from a node outside the view.

    Raised for a recovered member that the group already excluded, for the
    far side of a healed partition, or for a booting joiner whose beacons
    arrive before its admission.  The membership layer decides whether the
    stranger should be (re-)admitted — deliberately departed members are
    not."""

    def __init__(self, member: str) -> None:
        super().__init__()
        self.member = member


class PathChangedEvent(Event):
    """The dissemination path below changed (e.g. Mecho abandoned a dead
    relay).  Observations made through the old path say nothing about peer
    liveness; the failure detector restarts its observation window instead
    of suspecting everyone whose beacons died with the relay."""


class TriggerViewChangeEvent(Event):
    """Ask the membership layer to start a view change.

    With unchanged membership this produces a *refresh* view whose flush
    drives the channel quiescent — the mechanism the Core reconfigurator
    uses (paper §3.3).  ``hold`` requests that the stack stays blocked after
    the flush completes (a :class:`QuiescentEvent` is emitted instead of the
    unblocking view installation), so the stack can be replaced.
    """

    def __init__(self, exclude: tuple[str, ...] = (), hold: bool = False) -> None:
        super().__init__()
        self.exclude = exclude
        self.hold = hold


class LeaveRequestEvent(Event):
    """The local application wants to leave the group."""


class QuiescentEvent(Event):
    """Flush complete and the stack is held blocked, safe to replace.

    Carries the agreed next view so the replacement stack can boot straight
    into it.
    """

    def __init__(self, view: View) -> None:
        super().__init__()
        self.view = view


class FlushQueryEvent(Event):
    """Membership → reliable (down): report your traffic vector."""


class FlushStatusEvent(Event):
    """Reliable → membership (up): the local traffic vector."""

    def __init__(self, sent: int, delivered: dict[str, int]) -> None:
        super().__init__()
        #: Sequence number of the last message this node sent.
        self.sent = sent
        #: Per-sender highest contiguously delivered sequence number.
        self.delivered = dict(delivered)


class FlushCutEvent(Event):
    """Membership → reliable (down): reach this agreed delivery cut."""

    def __init__(self, cut: dict[str, int], coordinator: str) -> None:
        super().__init__()
        self.cut = dict(cut)
        #: Fallback retransmission source for senders that left the view.
        self.coordinator = coordinator


class CutReachedEvent(Event):
    """Reliable → membership (up): every message within the cut delivered."""

    def __init__(self, cut: dict[str, int]) -> None:
        super().__init__()
        self.cut = dict(cut)
