"""Group membership with view-synchronous flush.

Implements the membership service the paper's suite provides and the
quiescence mechanism Core's reconfiguration depends on (§3.3): *"The
coordinator first instructs all participants to trigger a group view change
in the data channels.  The view-synchronous properties of the group
communication protocol suite ensure that those channels become in a
quiescent state."*

Protocol (coordinator = lowest unsuspected member id of the current view,
re-elected deterministically when the incumbent fails):

1. ``flush_req``   — coordinator → group: start flushing towards
   ``new_view``; every member emits :class:`BlockEvent` upwards (the
   view-synchrony layer stops application sends), queries the reliable
   layer for its traffic vector and answers with ``flush_ack``.
2. ``flush_cut``   — once every surviving member acked, the coordinator
   computes the delivery cut — for each sender, the maximum of what anyone
   delivered and what the sender itself sent — and multicasts it.  Members
   drive their reliable layer to the cut (NACK recovery, with the
   coordinator as fallback source for messages from departed senders) and
   answer ``cut_ack``.
3. ``view_install`` — once every member reached the cut the coordinator
   announces the new view.  Members install it (``ViewEvent`` up and down,
   resetting sequencing and unblocking sends) — unless the change was
   requested with ``hold=True``, in which case the stack stays blocked and
   a :class:`QuiescentEvent` is emitted instead: the hook the Core local
   module uses to swap the stack.
4. ``install_ack`` — hold flushes only: each member acks the installation
   to its announcer and releases its quiescence at once; the announcer
   releases its own when the last member of the view has acked (see the
   acknowledged release below), so it is the last node to swap.

Loss tolerance: every message is idempotent; the coordinator periodically
re-announces its current phase, members periodically re-send their current
ack, and whoever holds an installed view answers stale acks for it by
re-unicasting the installation.

The initial view is installed from the bootstrap ``members`` parameter
(deterministically, without communication) one virtual instant after
``ChannelInit``.

Dynamic membership growth (the scenario subsystem's join/rejoin path):

* a node started with ``join=true`` does **not** self-install a bootstrap
  view; it periodically unicasts ``join_req`` to its bootstrap peers until
  the acting coordinator admits it through a flush whose target view *adds*
  the joiner.  Joiners hold no traffic in the closing view, so the flush
  runs among the old view's survivors only and the joiner receives the
  installation by unicast (re-announced for a few ticks, and re-sent in
  answer to any further ``join_req``);
* a **stranger beacon** (:class:`StrangerEvent` from the failure detector —
  a live node outside the view) re-admits recovered members and merges
  healed partitions through the same flush path.  Deliberate departures
  (leaves, explicit exclusions) are remembered in a ``banned`` set carried
  on every installation, so a departed node's lingering beacons do not
  resurrect it; an explicit ``join_req`` lifts the ban.

Incarnation numbering (zombie-coordinator hardening):

A crashed node's state machine keeps running blind — timers fire, its own
loopback completes singleton flushes — so a recovered "zombie" comes back
with a privately advanced view lineage and, when it is the lowest id of
its stale view, believes itself the acting coordinator.  The installed-
view history (PR 2) rejects exact replays, but the zombie can still
*absorb* live members into its stale lineage through admission flushes it
completes alone, stranding every member it never knew about.  The fix is
an **incarnation number** on view installations:

* each session counts the flushes it has announced that at least one
  *other* member acknowledged (``self.incarnation``).  A zombie flushing
  alone can never advance it;
* every ``flush_req``/``flush_cut``/``view_install`` carries the
  incarnation its installation runs under, and installs additionally name
  the original announcer in a ``stamp`` (replays must preserve the stamp
  the group installed);
* peers remember the highest incarnation seen per coordinator
  (``_coord_history``) — recorded when *engaging* with a flush, so a
  diverged replay of an install whose flush this node acked is already
  stale — and floor it at 0 for every peer they exclude;
* an install or flush request from an announcer **outside the receiver's
  current view** is rejected unless its incarnation is strictly newer
  than the receiver's history for that announcer (a multi-member view is
  never handed to a stale lineage; a singleton accepts any merge — it has
  nothing to lose and someone must move first);
* the lost-peer probe's merge-direction deference applies the same test:
  a ``join_req`` claiming an acting coordinator whose incarnation is not
  newer than the receiver's history is a zombie's claim, and the receiver
  admits the prober instead of deferring to it.

The stamp also rides the :class:`View` handed to the layers below, so the
reliable layer's sequencing epoch distinguishes same-id views of
divergent lineages (epoch reuse after a readmission used to re-deliver an
entire view's traffic to the application).

Finally, a non-coordinator that receives a ``join_req`` forwards it (one
hop) to its acting coordinator: a recovered singleton only knows the
peers of its stale view, and the acting coordinator — possibly admitted
while the prober was dead — may otherwise never learn of it.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Optional

from repro.kernel.events import Direction, Event, TimerEvent
from repro.kernel.layer import Layer
from repro.kernel.registry import register_layer
from repro.kernel.transport import DatagramTransportSession
from repro.protocols.base import GroupSession
from repro.protocols.events import (GROUP_DEST, BlockEvent, CutReachedEvent,
                                    FlushCutEvent, FlushQueryEvent,
                                    FlushStatusEvent, LeaveRequestEvent,
                                    MembershipMessage, QuiescentEvent,
                                    StrangerEvent, SuspectEvent,
                                    TriggerViewChangeEvent, UnsuspectEvent,
                                    View, ViewEvent)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.channel import TimerHandle

_INSTALL_TIMER = "gms-install-initial"
_RETRY_TIMER = "gms-retry"
#: Per-peer probe one-shots carry ``(_PROBE_TIMER, peer)`` tags.
_PROBE_TIMER = "gms-probe"

#: Seconds between two retry ticks; the tick counts below are in these.
_RETRY_INTERVAL = 0.5

#: Liveness backstop of a *hold* flush, in retry ticks.  A member waiting
#: in AWAIT_INSTALL this long self-installs the (fully known) target view;
#: a hold-flush coordinator still missing install acks this long releases
#: its own quiescence anyway.  Self-release is safe for the straggler's
#: deliveries — it only enters AWAIT_INSTALL after reaching the agreed
#: cut — and it only fires when the announcer is gone or an ack was lost
#: on its way from a member that has already swapped its stack.
_SELF_RELEASE_TICKS = 6

# Acknowledged release of a hold flush.  A member that installs a hold
# view sends one ``install_ack`` to the announcer and releases its
# quiescence at once (the Core local module swaps the stack).  The
# announcer stays in HELD with the old stack up, re-sends the installation
# on its retry ticks to every member that has not acked it, answers
# stragglers' stale acks with it (_answer_if_stale), and releases its own
# quiescence in the instant the last member of the target view acks.  The
# coordinator is thus the last node to swap, and only once it knows every
# member holds the view: no straggler is left without a node to re-ask.
# A staggered swap is harmless — each new stack's failure detector starts
# an observation floor for every member at its first view, and evidence
# of life is the node's, kept in the transport session the swap preserves.

#: Retry ticks the flush coordinator keeps re-unicasting an installation to
#: the view's joiners.  Joining nodes have their own ``join_req`` retry
#: loop, but *re-admitted* nodes (recovered members, a healed partition's
#: far side) do not know they were excluded and cannot re-ask — repetition
#: drives the residual loss probability down instead.
_JOIN_ANNOUNCE_TICKS = 6

#: A suspicion-based exclusion may be a false positive (a partition, a
#: transient overload), and once both sides have shrunk their views no
#: beacon ever crosses the old boundary again — so every node keeps
#: probing the peers it lost to suspicion with ``join_req``.  Each lost
#: peer gets its own **backoff one-shot timer**
#: (:meth:`~repro.kernel.session.Session.set_backoff_timer`): the first
#: probe fires ``_PROBE_EVERY_TICKS`` retry intervals after the loss and
#: the per-peer interval then doubles up to ``_PROBE_MAX_TICKS`` retry
#: intervals — capped exponential back-off with **no hard cutoff**.
#: (Earlier revisions spent a fixed budget of ~40 probes and then gave
#: up, which made a peer recovering after ~80 s unreachable forever
#: unless it re-joined explicitly.)  A healed partition merges through
#: these probes; a genuinely dead peer costs one unicast *and one timer
#: event* per back-off interval (half a minute at the default retry
#: interval) for as long as it stays dead.  Before the backoff timers,
#: probing kept every survivor's periodic retry tick armed forever — two
#: scheduler events per second per node per channel just to count down —
#: which the 100-node churn sweep showed as pure timer churn.
_PROBE_EVERY_TICKS = 4
_PROBE_MAX_TICKS = 64


class _Phase(enum.Enum):
    STABLE = "stable"
    AWAIT_STATUS = "await-status"      # member: waiting for reliable's vector
    AWAIT_CUT = "await-cut"            # member: acked, waiting for the cut
    REACHING_CUT = "reaching-cut"      # member: driving reliable to the cut
    AWAIT_INSTALL = "await-install"    # member: cut acked, waiting for view
    HELD = "held"                      # flush done, stack blocked for swap


class MembershipSession(GroupSession):
    """View agreement + flush state machine (member and coordinator sides)."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.retry_interval: float = _RETRY_INTERVAL
        self._bootstrap_view_id = int(layer.params.get("view_id", 0))
        #: Joiner mode: solicit admission instead of self-installing.
        self.joining: bool = bool(layer.params.get("join", False))
        self.phase = _Phase.STABLE
        self.suspected: set[str] = set()
        self.pending_leavers: set[str] = set()
        #: Nodes awaiting admission into the next view.
        self.pending_joiners: set[str] = set()
        #: Deliberately departed members; their beacons do not readmit them.
        self.banned: set[str] = set()
        self._deliberate_excludes: set[str] = set()
        #: Peers lost to suspicion-based exclusion → the backoff one-shot
        #: timer probing them (capped exponential, no cutoff — see
        #: _PROBE_MAX_TICKS; the handle's event carries the live
        #: interval/attempt state).
        self._lost_peers: dict[str, "TimerHandle"] = {}
        #: Every peer this node has ever known of: bootstrap list, view
        #: members, joiners, departed, join_req senders.  Probing is keyed
        #: on this set, not just on suspicion-based losses: two singleton
        #: lineages that never shared a view exchange *zero* packets
        #: otherwise (beb fans out to view members only), so neither ever
        #: discovers the other and both idle as mutually-invisible
        #: fantasies forever.
        self._known_peers: set[str] = set(self.members or ())
        self.held_view: Optional[View] = None
        #: Every ``(view_id, members)`` this session has installed, ever.
        #: The readmission exception consults it: an "install" that exactly
        #: replays a view this node already lived through is a stale-view
        #: resurrection (a zombie answering probes), never a genuine merge
        #: — a real merge view carries a new id or a new membership.
        self._installed_history: set[tuple[int, tuple[str, ...]]] = set()
        #: Ordered install timeline ``(time, view_id, members, departed)``
        #: — diagnostics for tests and the fuzzer's ejection invariant.
        self.install_log: list[tuple[float, int, tuple[str, ...],
                                     tuple[str, ...]]] = []
        #: Count of flushes this node announced that at least one *other*
        #: member acked — its coordinatorship incarnation.  See the module
        #: docstring: a zombie churning alone can never advance it.
        self.incarnation = 0
        #: Highest incarnation seen per coordinator (floored at 0 when a
        #: peer is excluded), the "history" stale lineages are checked
        #: against.
        self._coord_history: dict[str, int] = {}
        #: Stamp ``(announcer, incarnation)`` of the currently installed
        #: view — replayed verbatim when re-answering a lost install.
        self._view_stamp: Optional[tuple[str, int]] = None
        #: Incarnation the in-progress flush's installation will carry.
        self._target_incarnation = 0
        #: Called with the held view when a hold-flush completes (Core hook).
        self.quiescence_listener: Optional[Callable[[View], None]] = None

        # Member-side flush context.
        self._target_view: Optional[View] = None
        self._target_hold = False
        #: Sender of the flush request this member joined, the sender's
        #: number for that attempt at the flush, and when this node joined
        #: or started it.
        self._flush_announcer: Optional[str] = None
        self._flush_attempt: Optional[int] = None
        self._flush_started_at = 0.0
        self._last_status: Optional[dict] = None

        # Coordinator-side flush context.
        #: Flushes this node has started, numbering each request's attempt.
        self._flushes_started = 0
        self._acks: dict[str, dict] = {}
        self._cut_acks: set[str] = set()
        self._cut: Optional[dict[str, int]] = None
        self._install_announced = False
        self._last_install_payload: Optional[dict] = None

        self._retry_handle = None
        self._install_wait_ticks = 0
        #: The announcer's own held view, released once every member of it
        #: is in ``_install_acks`` (see the acknowledged release above).
        self._pending_quiescence: Optional[View] = None
        self._install_acks: set[str] = set()
        self._install_announced_at = 0.0
        # Post-install re-announcement to joiners (this node announced).
        self._announce_joiners: tuple[str, ...] = ()
        self._announce_ticks = 0
        #: Diagnostics: flush rounds completed, for tests and benches.
        self.flushes_completed = 0
        self.self_released = 0
        self.joins_admitted = 0

    # -- lifecycle ------------------------------------------------------------

    def on_channel_init(self, event: Event) -> None:
        # Delay the initial install one instant so every layer finishes its
        # own ChannelInit bookkeeping before ViewEvents start flowing.
        self.set_timer(0.0, tag=_INSTALL_TIMER, channel=event.channel)

    # -- role helpers ------------------------------------------------------------

    def _flush_coordinator(self) -> str:
        """The member driving changes: lowest unsuspected current member."""
        assert self.view is not None
        survivors = [m for m in self.view.members if m not in self.suspected]
        return survivors[0] if survivors else self.view.coordinator

    def _next_view(self) -> View:
        assert self.view is not None
        excluded = self.suspected | self.pending_leavers
        current = set(self.view.members)
        joiners = self.pending_joiners - current - excluded - self.banned
        if (excluded & current) or joiners:
            members = tuple(m for m in self.view.members
                            if m not in excluded) + tuple(sorted(joiners))
            return View(self.group, self.view.view_id + 1, members)
        return self.view.refresh()

    # -- event dispatch -------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        if isinstance(event, TimerEvent):
            self._on_timer(event)
            return
        if isinstance(event, MembershipMessage):
            self._on_message(event)
            return
        if isinstance(event, SuspectEvent):
            self._on_suspect(event)
            return
        if isinstance(event, UnsuspectEvent):
            self._on_unsuspect(event)
            return
        if isinstance(event, StrangerEvent):
            self._on_stranger(event)
            return
        if isinstance(event, TriggerViewChangeEvent):
            self._on_trigger(event)
            return
        if isinstance(event, LeaveRequestEvent):
            self._on_leave_request(event)
            return
        if isinstance(event, FlushStatusEvent):
            self._on_flush_status(event)
            return
        if isinstance(event, CutReachedEvent):
            self._on_cut_reached(event)
            return
        event.go()

    # -- timers ------------------------------------------------------------------------

    def _on_timer(self, event: TimerEvent) -> None:
        tag = event.tag
        if isinstance(tag, tuple) and tag[0] == _PROBE_TIMER:
            # Per-peer backoff one-shot: probe and let the kernel re-arm
            # at the stretched interval.  No periodic countdown is
            # involved — this fire is the only scheduler event the probe
            # cost since the previous one.
            peer = tag[1]
            if self.view is not None and peer in self._lost_peers:
                self._send_join_req(peer, event.channel)
            return
        if event.tag == _INSTALL_TIMER:
            if self.view is not None:
                return
            if self.joining:
                # Never self-install: ask the running group for admission.
                self._solicit_join(event.channel)
                self._arm_retry(event.channel)
            elif self.members:
                initial = View(self.group, self._bootstrap_view_id,
                               self.members)
                self._install(initial, hold=False, channel=event.channel)
            return
        if event.tag == _RETRY_TIMER:
            self._retry_tick(event.channel)

    def _solicit_join(self, channel) -> None:
        """Unicast ``join_req`` to every bootstrap peer (whichever of them
        is the acting coordinator will drive the admission).  A member
        soliciting *re*-admission after installing its own exclusion view
        asks that view's members instead — they are the live group."""
        assert self.local is not None
        peers = self.members
        if self.view is not None and not self.view.includes(self.local):
            peers = self.view.members
        for member in peers:
            if member == self.local:
                continue
            self._send_join_req(member, channel)

    def _send_join_req(self, dest: str, channel) -> None:
        # The request carries this side's acting coordinator (None for a
        # fresh joiner): two established views merging must agree on a
        # direction, and the rule is that the side with the lowest
        # coordinator id absorbs the other (see _on_join_request).  The
        # claimed coordinator's incarnation rides along so the receiver
        # can tell a live lineage's claim from a zombie's.
        coordinator = self._flush_coordinator() if self.view is not None \
            else None
        incarnation = 0
        if coordinator == self.local:
            incarnation = self.incarnation
        elif coordinator is not None:
            incarnation = self._coord_history.get(coordinator, 0)
        request = self.control_message(
            MembershipMessage,
            {"kind": "join_req", "from": self.local,
             "coordinator": coordinator,
             "coordinator_incarnation": incarnation},
            dest=dest, source=self.local)
        self.send_down(request, channel=channel)

    def _arm_retry(self, channel) -> None:
        if self._retry_handle is None:
            self._retry_handle = self.set_periodic_timer(
                self.retry_interval, tag=_RETRY_TIMER, channel=channel)

    def _stop_retry(self) -> None:
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None

    def _retry_tick(self, channel) -> None:
        """Re-announce the current coordinator phase and member ack."""
        if self.joining and (self.view is None or
                             not self.view.includes(self.local)):
            self._solicit_join(channel)
            return
        if self._announce_ticks > 0 and \
                self._last_install_payload is not None and \
                self._target_view is None:
            # Re-announce a fresh installation to its joiners (they cannot
            # NACK what they never learned about; see _JOIN_ANNOUNCE_TICKS).
            # Guarded on no flush being active: _broadcast_install builds
            # from the in-progress target when one exists, and a
            # not-yet-agreed view must never reach a joiner.
            self._announce_ticks -= 1
            for joiner in self._announce_joiners:
                self._broadcast_install(channel, unicast_to=joiner)
        coordinating = self._target_view is not None and \
            self.view is not None and self._flush_coordinator() == self.local
        if coordinating:
            if self._install_announced:
                self._broadcast_install(channel)
            elif self._cut is not None:
                # Re-send the request alongside the cut: a member whose
                # flush context was reset after acking (a crossing install
                # of the previous view, a late catch-up through
                # _answer_if_stale) ignores a bare cut — only a fresh
                # flush_req re-enrolls it.
                self._broadcast_flush_req(channel)
                self._broadcast_cut(channel)
            elif self._suspect_silent(self._flush_participants() -
                                      set(self._acks) - {self.local},
                                      channel):
                # A participant that owes its flush ack has left the port.
                self._start_flush(hold=self._target_hold, channel=channel)
            else:
                self._broadcast_flush_req(channel)
        if self.phase is _Phase.HELD and self._pending_quiescence is not None:
            # The announcer of a hold flush waits for install acks, not for
            # a number of ticks, and re-sends the installation to every
            # member that has not acked it.  A member still waiting for
            # the view re-sends its cut ack every retry interval; one
            # silent on this port for two of them has most likely
            # installed the view and swapped its stack (its ack was lost,
            # and the old stack that would ack a re-send is gone) — or is
            # gone itself.  That inference is the only way an ack counts
            # without arriving; a straggler it misjudges still has the
            # self-release backstop.
            self._install_wait_ticks += 1
            view = self._pending_quiescence
            if self._install_wait_ticks >= _SELF_RELEASE_TICKS:
                self.self_released += 1
                self._pending_quiescence = None
                self._release_quiescence(view, channel)
                return
            service = DatagramTransportSession.of(channel)
            for member in view.members:
                if member in self._install_acks:
                    continue
                if service.silent(channel.name, member,
                                  self._install_announced_at,
                                  2 * self.retry_interval):
                    self._install_acks.add(member)
                else:
                    self._broadcast_install(channel, unicast_to=member)
            self._release_if_acked(channel)
            return
        if self._target_view is not None and not coordinating and \
                self._suspect_silent({self._flush_coordinator()}, channel):
            # The acting coordinator has left the port: hand the flush on.
            if self._flush_coordinator() == self.local:
                self._start_flush(hold=self._target_hold, channel=channel)
            return
        # Member side: re-send whatever proof of progress we owe.
        if self.phase is _Phase.AWAIT_STATUS:
            self.send_down(FlushQueryEvent(), channel=channel)
        elif self.phase is _Phase.AWAIT_CUT and self._last_status is not None:
            self._send_flush_ack(channel)
        elif self.phase is _Phase.AWAIT_INSTALL:
            self._send_cut_ack(channel)
            self._install_wait_ticks += 1
            if self._target_hold and \
                    self._install_wait_ticks >= _SELF_RELEASE_TICKS and \
                    self._target_view is not None:
                # Liveness backstop (see _SELF_RELEASE_TICKS): the hold
                # coordinator may already have replaced its stack; we know
                # the agreed view and have reached the cut — install it.
                self.self_released += 1
                self._install(self._target_view, hold=True, channel=channel,
                              immediate=True,
                              announcer=self._flush_coordinator())
        elif self.phase is _Phase.STABLE and not coordinating and \
                self._announce_ticks <= 0:
            self._stop_retry()

    def _arm_probe(self, peer: str, channel) -> None:
        """Start the per-peer probe loop: a backoff one-shot whose interval
        doubles from 4 to 64 retry intervals, rearmed on every fire."""
        self._lost_peers[peer] = self.set_backoff_timer(
            _PROBE_EVERY_TICKS * self.retry_interval,
            tag=(_PROBE_TIMER, peer),
            max_interval=_PROBE_MAX_TICKS * self.retry_interval,
            channel=channel)

    def _drop_probe(self, peer: str) -> None:
        handle = self._lost_peers.pop(peer, None)
        if handle is not None:
            handle.cancel()

    # -- incarnation bookkeeping --------------------------------------------

    def _note_incarnation(self, peer: Optional[str], incarnation) -> None:
        """Record the highest coordinatorship incarnation seen from
        ``peer`` (from flush requests, cuts and installs)."""
        if peer is None or not isinstance(incarnation, int):
            return
        if incarnation > self._coord_history.get(peer, -1):
            self._coord_history[peer] = incarnation

    def _accepts_foreign(self, announcer: Optional[str],
                         incarnation) -> bool:
        """May an install/flush from a coordinator *outside the current
        view* take this node over?

        Yes when the announcer's claimed incarnation is strictly newer
        than everything recorded for it (a live lineage making progress),
        when the announcer was never seen coordinating (first contact —
        fresh joiners and unknown lineages), or when this node's own view
        is a singleton (a lone node accepts any merge: it has nothing to
        lose, and two mutually-stale singletons must not deadlock).  No —
        meaning the claim replays a lineage already known to be stale
        (the zombie acting-coordinator window) — otherwise.
        """
        known = self._coord_history.get(announcer) \
            if announcer is not None else None
        if known is None:
            return True
        if isinstance(incarnation, int) and incarnation > known:
            return True
        return self.view is not None and len(self.view.members) <= 1

    def _isolated(self, announcer: Optional[str], members) -> bool:
        """Does a flush or installation from ``announcer`` towards
        ``members`` only record that the announcer lost this side?

        True when the announcer is a member of this node's view but not its
        acting coordinator, and its target keeps nobody of this view but
        itself: a member that suspected everyone it could not hear and
        flushed alone.  Its fan-out still reaches the old view once the
        link is back (a healed partition), and taking it up would abandon
        the flush this view's coordinator is running — a Core hold flush
        included, leaving the reconfiguration waiting for a quiescence that
        never comes — and dissolve the view into one that excludes this
        node.  It is evidence that the announcer left this view instead
        (see :meth:`_suspect_isolated`); the announcer merges back as a
        joiner through its probes.
        """
        if self.view is None or announcer is None or \
                announcer == self.local or self.local in members or \
                not self.view.includes(announcer) or \
                self._flush_coordinator() == announcer:
            return False
        return not (set(members) & set(self.view.members)) - {announcer}

    def _suspect_isolated(self, announcer: str, channel) -> None:
        """Exclude a member that isolated itself (:meth:`_isolated`)."""
        if announcer not in self.suspected:
            self._suspect_here({announcer}, channel)
            self._exclude_suspect(announcer, channel)

    # -- suspicion / triggers ---------------------------------------------------------

    def _on_suspect(self, event: SuspectEvent) -> None:
        self.suspected.add(event.member)
        event.go()  # let upper layers observe the suspicion
        self._exclude_suspect(event.member, event.channel)

    def _exclude_suspect(self, member: str, channel) -> None:
        """The acting coordinator starts a flush without a newly suspected
        current member, or restarts the one it runs."""
        if self.view is None or not self.view.includes(member):
            return
        if self._flush_coordinator() != self.local:
            return
        if self.phase is _Phase.STABLE and self._target_view is None:
            self._start_flush(hold=False, channel=channel)
        elif self._target_view is not None and \
                not self._install_announced:
            # A flush is running and a current-view member died mid-round.
            # Either it was a flush participant (its ack will never arrive)
            # or it was the member *driving* the flush — acting
            # coordinatorship just fell to this node, and nobody else will
            # finish the round.  The second case is why this branch must
            # not be gated on target membership: a leaver coordinating its
            # own departure flush is absent from the target it announced,
            # and when it dies mid-flush every survivor used to wedge in
            # that flush forever.  Restart towards a target derived from
            # current suspicions (surviving members simply re-join the
            # revised flush).
            self._start_flush(hold=self._target_hold, channel=channel)

    def _on_unsuspect(self, event: UnsuspectEvent) -> None:
        self.suspected.discard(event.member)
        event.go()
        # Heard before any other member acknowledged the flush excluding
        # it: re-target the flush rather than pay another to re-admit it.
        if self._target_view is not None and not self._install_announced \
                and not set(self._acks) - {self.local} \
                and event.member not in self._deliberate_excludes \
                and self._flush_coordinator() == self.local \
                and self._next_view().members != self._target_view.members:
            self._start_flush(hold=self._target_hold, channel=event.channel)

    def _on_stranger(self, event: StrangerEvent) -> None:
        """A live node outside the view: re-admit unless it departed on
        purpose (recovered members and healed partitions come back this
        way; leavers and deliberate exclusions stay out).

        A non-coordinator relays the sighting to its acting coordinator
        as a ``join_req`` on the stranger's behalf: the coordinator may
        sit outside the stranger's (stale) fan-out and would otherwise
        never learn of it — a recovered zombie whose fantasy view already
        contains this node beacons only here, answers probes with its
        stale installs, and stalls forever unless somebody who *can* act
        hears about it.
        """
        member = event.member
        if self.view is None or self.view.includes(member) or \
                member in self.banned:
            return
        self._known_peers.add(member)
        self.pending_joiners.add(member)
        if self._flush_coordinator() == self.local:
            if self.phase is _Phase.STABLE:
                self._start_flush(hold=False, channel=event.channel)
        else:
            self._forward_join_req(
                {"kind": "join_req", "from": member, "coordinator": None},
                event.channel)

    def _on_trigger(self, event: TriggerViewChangeEvent) -> None:
        """Core's entry point; only the acting coordinator initiates."""
        for member in event.exclude:
            self.suspected.add(member)
            self._deliberate_excludes.add(member)
        if self.view is not None and \
                self._flush_coordinator() == self.local and \
                self.phase is _Phase.STABLE:
            self._start_flush(hold=event.hold, channel=event.channel)

    def _on_leave_request(self, event: LeaveRequestEvent) -> None:
        assert self.local is not None
        if self.view is None:
            return
        if self._flush_coordinator() == self.local:
            self.pending_leavers.add(self.local)
            if self.phase is _Phase.STABLE:
                self._start_flush(hold=False, channel=event.channel)
        else:
            leave = self.control_message(
                MembershipMessage,
                {"kind": "leave_req", "from": self.local},
                dest=self._flush_coordinator(), source=self.local)
            self.send_down(leave, channel=event.channel)

    # -- coordinator side ------------------------------------------------------------------

    def _start_flush(self, hold: bool, channel) -> None:
        assert self.view is not None
        proposed = self._next_view()
        if not proposed.members:
            return
        self._target_view = proposed
        self._target_hold = hold
        # The incarnation this flush's installation will carry: advanced
        # only when another member will acknowledge the flush — a node
        # flushing alone (a zombie, an isolated singleton) keeps replaying
        # its current incarnation, which is exactly what lets its
        # ex-peers recognize the lineage as stale.
        participants = set(self.view.members) & set(proposed.members)
        self._target_incarnation = self.incarnation + 1 \
            if participants - {self.local} else self.incarnation
        if self.phase is not _Phase.HELD:
            # A restart mid-flush must re-enter the coordinator's *member*
            # side too: with the phase left at a later stage, the fresh
            # flush_req's loopback is deduplicated against the very target
            # it just set and this node never re-acks itself — the flush
            # wedges with every other participant waiting on it.
            self.phase = _Phase.STABLE
            self._last_status = None
        self._acks = {}
        self._cut_acks = set()
        self._cut = None
        self._install_announced = False
        self._flush_started_at = channel.kernel.now()
        self._flushes_started += 1
        # A new flush supersedes any post-install re-announcement (a
        # joiner that missed the previous installation re-asks anyway).
        self._announce_joiners = ()
        self._announce_ticks = 0
        self._broadcast_flush_req(channel)
        self._arm_retry(channel)

    def _suspect_silent(self, members: set[str], channel) -> bool:
        """Suspect each of ``members`` that has left this channel; True
        when any has.

        Both sides of a flush talk on the channel's port every retry tick,
        and a peer whose stack on the port still watches this node at
        least beacons it there.  A peer silent on the port — no packet on
        it, no beacon listing it — for a whole suspicion timeout since
        this node joined or started the flush has moved its stack to
        another generation's port (a reconfiguration this node never
        received).  The failure detector takes evidence of life from every
        port, so it never suspects such a peer, and without this the flush
        would wait for it forever.
        """
        service = DatagramTransportSession.of(channel)
        silent = {member for member in members
                  if member not in self.suspected and
                  service.silent(channel.name, member,
                                 self._flush_started_at)}
        self._suspect_here(silent, channel)
        return bool(silent)

    def _suspect_here(self, members: set[str], channel) -> None:
        """Suspect ``members`` on this channel's own evidence.  The failure
        detector below never raises such a suspicion, so it also goes down
        to the relay choice: a wireless Mecho member whose relay left the
        port would keep handing the flush to a node that drops it."""
        self.suspected |= members
        for member in sorted(members):
            self.send_down(SuspectEvent(member), channel=channel)

    def _broadcast_flush_req(self, channel) -> None:
        assert self._target_view is not None
        req = self.control_message(
            MembershipMessage,
            {"kind": "flush_req", "new_view_id": self._target_view.view_id,
             "members": list(self._target_view.members),
             "hold": self._target_hold, "from": self.local,
             "incarnation": self._target_incarnation,
             "attempt": self._flushes_started},
            dest=GROUP_DEST, source=self.local)
        self.send_down(req, channel=channel)

    def _flush_participants(self) -> set[str]:
        """Members whose flush acks are required: the current view's
        survivors.  Joiners hold no traffic in the closing view — they are
        outside the cut and receive the installation directly."""
        assert self._target_view is not None
        target = set(self._target_view.members)
        if self.view is None:
            return target
        return set(self.view.members) & target

    def _on_flush_ack(self, payload: dict, channel) -> None:
        if self._answer_if_stale(payload, channel) or \
                self._adopt_orphan(payload, channel):
            return
        if self._target_view is None or \
                payload["new_view_id"] != self._target_view.view_id:
            return
        self._acks[payload["from"]] = payload
        if self._flush_participants().issubset(self._acks) and \
                self._cut is None:
            self._cut = self._compute_cut()
            self._broadcast_cut(channel)

    def _compute_cut(self) -> dict[str, int]:
        assert self.view is not None and self._target_view is not None
        cut: dict[str, int] = {member: 0 for member in self.view.members}
        for reporter, payload in self._acks.items():
            cut[reporter] = max(cut.get(reporter, 0), payload["sent"])
            for sender, high in payload["delivered"].items():
                cut[sender] = max(cut.get(sender, 0), high)
        return cut

    def _broadcast_cut(self, channel) -> None:
        assert self._target_view is not None and self._cut is not None
        message = self.control_message(
            MembershipMessage,
            {"kind": "flush_cut", "new_view_id": self._target_view.view_id,
             "members": list(self._target_view.members),
             "cut": dict(self._cut), "hold": self._target_hold,
             "from": self.local, "incarnation": self._target_incarnation},
            dest=GROUP_DEST, source=self.local)
        self.send_down(message, channel=channel)

    def _on_cut_ack(self, payload: dict, channel) -> None:
        if self._answer_if_stale(payload, channel) or \
                self._adopt_orphan(payload, channel):
            return
        if self._target_view is None or \
                payload["new_view_id"] != self._target_view.view_id:
            return
        self._cut_acks.add(payload["from"])
        if self._flush_participants().issubset(self._cut_acks) and \
                not self._install_announced:
            self._install_announced = True
            self._install_announced_at = channel.kernel.now()
            self._install_acks = set()
            self._broadcast_install(channel)

    def _on_install_ack(self, payload: dict, channel) -> None:
        """A member holds the hold view this node announced; release this
        node's own quiescence once every member of it does."""
        last = self._last_install_payload
        if last is None or payload["new_view_id"] != last["new_view_id"]:
            return
        self._install_acks.add(payload["from"])
        self._release_if_acked(channel)

    def _release_if_acked(self, channel) -> None:
        view = self._pending_quiescence
        if view is None or self.phase is not _Phase.HELD or \
                not self._install_acks.issuperset(view.members):
            return
        self._pending_quiescence = None
        self._release_quiescence(view, channel)

    def _send_install_ack(self, view: View, dest: str, channel) -> None:
        ack = self.control_message(
            MembershipMessage,
            {"kind": "install_ack", "new_view_id": view.view_id,
             "from": self.local},
            dest=dest, source=self.local)
        self.send_down(ack, channel=channel)

    def _broadcast_install(self, channel, unicast_to: Optional[str] = None) -> None:
        if self._target_view is not None:
            old = set(self.view.members) if self.view is not None else set()
            target = set(self._target_view.members)
            departed = sorted(
                (self.pending_leavers | self._deliberate_excludes) &
                (old - target))
            # Announcing commits the flush's incarnation; the stamp names
            # this node so replays by later coordinators stay verbatim.
            self.incarnation = max(self.incarnation,
                                   self._target_incarnation)
            payload = {"kind": "view_install",
                       "new_view_id": self._target_view.view_id,
                       "members": list(self._target_view.members),
                       "joiners": sorted(target - old),
                       "departed": departed,
                       "hold": self._target_hold, "from": self.local,
                       "stamp": [self.local, self._target_incarnation]}
            self._last_install_payload = payload
        elif self._last_install_payload is not None:
            payload = dict(self._last_install_payload)
        else:
            return
        if unicast_to is not None:
            dests = [unicast_to]
        else:
            # Joiners are outside the old view that GROUP_DEST fans to;
            # they get the installation by explicit unicast.
            dests = [GROUP_DEST] + [joiner for joiner in payload["joiners"]
                                    if joiner != self.local]
        for dest in dests:
            message = self.control_message(MembershipMessage, dict(payload),
                                           dest=dest, source=self.local)
            self.send_down(message, channel=channel)

    def _adopt_orphan(self, payload: dict, channel) -> bool:
        """Run a flush for a member stuck in one nobody drives.

        An ack for the next view, from a member of this view, while this
        acting coordinator runs no flush: the member joined a flush whose
        announcer abandoned it (it installed this view instead).  A member
        ignores acks' answers and a bare cut; only a new request
        re-enrolls it.
        """
        if self._target_view is not None or self.view is None or \
                self.phase is not _Phase.STABLE or \
                payload["new_view_id"] != self.view.view_id + 1 or \
                not self.view.includes(payload["from"]) or \
                self._flush_coordinator() != self.local:
            return False
        self._start_flush(hold=False, channel=channel)
        return True

    def _answer_if_stale(self, payload: dict, channel) -> bool:
        """Re-unicast the installation to members stuck in an old flush.

        Replays the *stored* payload verbatim — never one rebuilt from an
        in-progress target: answering a stale ack while the next flush is
        running used to hand the straggler a not-yet-agreed view, which a
        freshly excluded member would happily install (observed as a
        member stranded on a view the group never formed).
        """
        last = self._last_install_payload
        if last is None:
            return False
        if self._target_view is not None and \
                self._target_view.view_id == payload["new_view_id"]:
            return False  # current flush traffic, not a straggler
        if payload["new_view_id"] == last["new_view_id"]:
            message = self.control_message(MembershipMessage, dict(last),
                                           dest=payload["from"],
                                           source=self.local)
            self.send_down(message, channel=channel)
            return True
        if self.view is not None and \
                payload["new_view_id"] <= self.view.view_id and \
                self.view.includes(payload["from"]):
            # An ack referencing a view *older* than the one installed,
            # from a member of the current view: that member missed one
            # or more installations (it may be acking a divergent
            # lineage's flush to us because *its* stale suspicion set
            # elects us coordinator).  Replaying the installation is the
            # only signal that can pull it forward — without it, a flush
            # needing its ack wedges forever while both sides heartbeat
            # contentedly.
            message = self.control_message(MembershipMessage, dict(last),
                                           dest=payload["from"],
                                           source=self.local)
            self.send_down(message, channel=channel)
            return True
        return False

    # -- member side ----------------------------------------------------------------------

    def _on_message(self, event: MembershipMessage) -> None:
        if event.direction is not Direction.UP:
            event.go()
            return
        payload = self.payload_of(event)
        kind = payload["kind"]
        channel = event.channel
        if kind == "flush_req":
            self._member_flush_req(payload, channel)
        elif kind == "flush_ack":
            self._on_flush_ack(payload, channel)
        elif kind == "flush_cut":
            self._member_flush_cut(payload, channel)
        elif kind == "cut_ack":
            self._on_cut_ack(payload, channel)
        elif kind == "view_install":
            self._member_view_install(payload, channel)
        elif kind == "install_ack":
            self._on_install_ack(payload, channel)
        elif kind == "view_query":
            self._answer_if_stale(payload, channel)
        elif kind == "leave_req":
            self.pending_leavers.add(payload["from"])
            if self.view is not None and \
                    self._flush_coordinator() == self.local and \
                    self.phase is _Phase.STABLE:
                self._start_flush(hold=False, channel=channel)
        elif kind == "join_req":
            self._on_join_request(payload, channel)

    def _on_join_request(self, payload: dict, channel) -> None:
        member = payload["from"]
        their_coordinator = payload.get("coordinator")
        if self.view is None:
            return
        self._known_peers.add(member)
        if their_coordinator is not None:
            self._known_peers.add(their_coordinator)
        if their_coordinator is not None and not self.view.includes(member) \
                and their_coordinator < self._flush_coordinator() and \
                self._accepts_foreign(
                    their_coordinator,
                    payload.get("coordinator_incarnation", 0)):
            # The requester belongs to an established view whose coordinator
            # outranks ours AND whose claimed incarnation is plausibly live:
            # the merge direction is theirs — the side with the *lowest*
            # coordinator absorbs (absorbing them here would let a stale
            # high-numbered view swallow a healthy group).  A claim whose
            # incarnation is not newer than our history for that
            # coordinator is a zombie lineage: no deference — admit the
            # prober into this (live) side instead.
            #
            # Deference must not be silent: the prober may never have seen
            # this node (a member admitted while the components were
            # apart), in which case *its* side holds no probe pointing
            # here and the two lineages would defer/retry forever.  A
            # counter join_req carries this side's admission request to
            # the absorbing side, which admits it by the same rule.
            if not payload.get("forwarded"):
                self._send_join_req(member, channel)
            return
        if self.view.includes(member):
            # Already admitted: the joiner lost the installation — repeat
            # it.  Only the acting coordinator answers: repeating an
            # installation is a coordinator duty everywhere else in this
            # protocol, and a non-coordinator's view may itself be stale.
            # (A recovered zombie whose pre-crash view still includes the
            # prober would otherwise answer the live group's lost-peer
            # probes by re-announcing that dead view, which the probers
            # accept through the readmission exception below — observed as
            # a permanent group-wide stall in the 10+-node churn sweeps.)
            if self._flush_coordinator() != self.local:
                self._forward_join_req(payload, channel)
                return
            # Replay carries the stamp the view was installed under —
            # never a fresh one — so a receiver whose history already
            # covers that incarnation recognizes a stale lineage.
            stamp = list(self._view_stamp) if self._view_stamp is not None \
                else [self.local, self.incarnation]
            reply = {"kind": "view_install",
                     "new_view_id": self.view.view_id,
                     "members": list(self.view.members),
                     "joiners": [member], "departed": [],
                     "hold": False, "from": self.local,
                     "stamp": stamp}
            message = self.control_message(MembershipMessage, reply,
                                           dest=member, source=self.local)
            self.send_down(message, channel=channel)
            return
        self.banned.discard(member)  # an explicit request lifts any ban
        self.pending_joiners.add(member)
        if self._flush_coordinator() == self.local:
            if self.phase is _Phase.STABLE:
                self._start_flush(hold=False, channel=channel)
        else:
            self._forward_join_req(payload, channel)

    def _forward_join_req(self, payload: dict, channel) -> None:
        """Relay a ``join_req`` (one hop) to the acting coordinator.

        A prober only knows the peers of its (possibly stale) view; the
        acting coordinator may have been admitted while the prober was
        away — or the prober may already be back in the view without
        knowing it — and would otherwise never learn of the request.  The
        flag keeps a stale coordinator pointer from bouncing requests
        around.
        """
        if payload.get("forwarded"):
            return
        relayed = dict(payload)
        relayed["forwarded"] = True
        forward = self.control_message(
            MembershipMessage, relayed,
            dest=self._flush_coordinator(), source=self.local)
        self.send_down(forward, channel=channel)

    def _member_flush_req(self, payload: dict, channel) -> None:
        # Join only a flush based on the view this member actually runs:
        # ``new_view_id`` is always the base view's id + 1, so a request
        # racing ahead of the previous installation (the coordinator
        # "changes again" in the very instant it installs) must wait until
        # that install lands — an ack computed from the older view's
        # sequencing state would poison the cut.  A member lagging more
        # than one view cannot exist in-lineage: every flush needs this
        # member's acks to complete, so at most the last installation is
        # outstanding (re-answered through _answer_if_stale).
        announcer = payload.get("from")
        if self.view is None or \
                payload["new_view_id"] != self.view.view_id + 1:
            if self.view is not None and announcer is not None and \
                    payload["new_view_id"] > self.view.view_id + 1 and \
                    self.view.includes(announcer):
                # A member of this view is flushing past views this node
                # never installed (every repeat of an installation lost,
                # say across a partition).  Nothing else would tell it:
                # a stale ack makes it replay its latest installation.
                query = self.control_message(
                    MembershipMessage,
                    {"kind": "view_query",
                     "new_view_id": self.view.view_id + 1,
                     "from": self.local},
                    dest=announcer, source=self.local)
                self.send_down(query, channel=channel)
            return
        if self._isolated(announcer, payload["members"]):
            self._suspect_isolated(announcer, channel)
            return
        if announcer is not None and not self.view.includes(announcer):
            # A coordinator outside this view roping us into its flush is
            # a lineage takeover (a zombie's privately advanced ids can
            # outrun ours): only a provably-live lineage may do that.
            if not self._accepts_foreign(announcer,
                                         payload.get("incarnation", 0)):
                return
        self._note_incarnation(announcer, payload.get("incarnation"))
        proposed = View(self.group, payload["new_view_id"],
                        tuple(payload["members"]))
        attempt = payload.get("attempt")
        if self._target_view == proposed and \
                (announcer, attempt) == (self._flush_announcer,
                                         self._flush_attempt) and \
                self.phase in (_Phase.AWAIT_CUT, _Phase.REACHING_CUT,
                               _Phase.AWAIT_INSTALL):
            # Duplicate announcement of a flush we already joined.  The
            # same target under another attempt is a restart (its first
            # announcer died mid-round, or the coordinator started over):
            # join it afresh, or the coordinator waits forever for a flush
            # ack this member sent to the earlier attempt.
            return
        self._target_view = proposed
        self._target_hold = bool(payload["hold"])
        self._flush_attempt = attempt
        self._flush_announcer = announcer
        self._flush_started_at = channel.kernel.now()
        self._last_status = None
        self.phase = _Phase.AWAIT_STATUS
        self._arm_retry(channel)
        self.send_up(BlockEvent(proposed.view_id), channel=channel)
        self.send_down(FlushQueryEvent(), channel=channel)

    def _on_flush_status(self, event: FlushStatusEvent) -> None:
        if self.phase is not _Phase.AWAIT_STATUS or self._target_view is None:
            return
        self._last_status = {"sent": event.sent,
                             "delivered": dict(event.delivered)}
        self.phase = _Phase.AWAIT_CUT
        self._send_flush_ack(event.channel)

    def _send_flush_ack(self, channel) -> None:
        assert self._target_view is not None and self._last_status is not None
        ack = self.control_message(
            MembershipMessage,
            {"kind": "flush_ack", "new_view_id": self._target_view.view_id,
             "from": self.local, "sent": self._last_status["sent"],
             "delivered": dict(self._last_status["delivered"])},
            dest=self._ack_dest(), source=self.local)
        self.send_down(ack, channel=channel)

    def _ack_dest(self) -> str:
        """Where flush and cut acks go: the acting coordinator — unless the
        target view excludes it.  A member suspected by the announcer but
        not by itself would otherwise join the flush that excludes it,
        re-drive it as the lowest unsuspected member and absorb every
        ack addressed to it, and the announcer would never reach a quorum.
        """
        coordinator = self._flush_coordinator()
        target = self._target_view
        if self._flush_announcer is not None and target is not None and \
                not target.includes(coordinator):
            return self._flush_announcer
        return coordinator

    def _member_flush_cut(self, payload: dict, channel) -> None:
        # The id alone does not name the flush: concurrent flushes of one
        # view (a member that flushed alone, say) share the next id.
        if self._target_view is None or \
                payload["new_view_id"] != self._target_view.view_id or \
                tuple(payload["members"]) != self._target_view.members:
            return
        self._note_incarnation(payload.get("from"), payload.get("incarnation"))
        if self.phase not in (_Phase.AWAIT_CUT, _Phase.AWAIT_STATUS):
            if self.phase is _Phase.AWAIT_INSTALL:
                self._send_cut_ack(channel)  # retry: re-ack
            return
        self.phase = _Phase.REACHING_CUT
        self.send_down(FlushCutEvent(payload["cut"],
                                     coordinator=self._flush_coordinator()),
                       channel=channel)

    def _on_cut_reached(self, event: CutReachedEvent) -> None:
        if self.phase is not _Phase.REACHING_CUT:
            return
        self.phase = _Phase.AWAIT_INSTALL
        self._send_cut_ack(event.channel)

    def _send_cut_ack(self, channel) -> None:
        assert self._target_view is not None
        ack = self.control_message(
            MembershipMessage,
            {"kind": "cut_ack", "new_view_id": self._target_view.view_id,
             "from": self.local},
            dest=self._ack_dest(), source=self.local)
        self.send_down(ack, channel=channel)

    def _member_view_install(self, payload: dict, channel) -> None:
        # Watermark covers held views too: a hold-install does not advance
        # ``self.view`` (the new stack will absorb it), but re-broadcasts of
        # the same installation must still be recognized as duplicates.
        watermark = self.view.view_id if self.view is not None else -1
        if self.held_view is not None:
            watermark = max(watermark, self.held_view.view_id)
        raw_stamp = payload.get("stamp")
        stamp = (raw_stamp[0], raw_stamp[1]) if raw_stamp else None
        announcer = payload.get("from")
        if self._isolated(announcer, payload["members"]):
            self._suspect_isolated(announcer, channel)
            return
        if self.view is not None and announcer is not None and \
                (not self.view.includes(announcer) or
                 (self.local in payload.get("joiners", ()) and
                  self.view.includes(self.local) and
                  payload["new_view_id"] == self.view.view_id + 1 and
                  (payload["new_view_id"], tuple(payload["members"]))
                  not in self._installed_history)):
            # Cross-lineage installation: the announcing lineage must
            # prove liveness — its stamped incarnation must be newer than
            # this node's history for the stamp's coordinator.  This
            # closes the zombie acting-coordinator window: a recovered
            # node replaying or extending its pre-crash lineage replays an
            # incarnation its ex-peers already recorded.  It is
            # cross-lineage when the announcer is outside this node's
            # view, or when it admits this node as a joiner on top of a
            # view with the id of this node's own view, which holds both:
            # a view of this lineage would have had this node flush, not
            # join — the two views only share an id (seen as a recovered
            # node's late re-announcement of its private view, crossing
            # the group's installation that had just taken it back).
            stamp_coord, stamp_inc = stamp if stamp is not None \
                else (announcer, 0)
            if not self._accepts_foreign(stamp_coord, stamp_inc):
                return
        held = self.held_view
        if held is not None and payload["hold"] and \
                payload["new_view_id"] == held.view_id and \
                tuple(payload["members"]) == held.members:
            # A re-sent installation this node already holds: its install
            # ack was lost, and the announcer is still waiting for it.
            if announcer is not None and announcer != self.local:
                self._send_install_ack(held, announcer, channel)
            return
        proposed = View(self.group, payload["new_view_id"],
                        tuple(payload["members"]), stamp=stamp)
        if payload["new_view_id"] <= watermark:
            # One exception to monotonicity: divergent histories.  A node
            # excluded by suspicion (crash, partition) keeps numbering views
            # on its own side and may burn past the other side's counter —
            # so an install that *admits this node* is accepted even at a
            # lower id, as long as it actually moves this node somewhere
            # new (repeats of the same installation stay deduplicated) and
            # it provably comes from another, live lineage: announced from
            # outside this node's view, or stamped with an incarnation
            # strictly newer than this node's history (a half-churned
            # zombie's stale view can still contain the live announcer —
            # the stamp, which a stale lineage cannot mint, settles it).
            stamp_fresh = stamp is not None and \
                stamp[1] > self._coord_history.get(stamp[0], -1)
            readmission = (self.view is not None and
                           self.local in payload.get("joiners", ()) and
                           (not self.view.includes(announcer) or
                            stamp_fresh) and
                           proposed != self.view and
                           (proposed.view_id, tuple(proposed.members))
                           not in self._installed_history)
            if not readmission:
                return
        # Whoever holds the view answers a straggler's stale acks with this
        # installation, verbatim (_answer_if_stale) — not only the node
        # that announced it, which may have left or swapped its stack.
        self._last_install_payload = dict(payload)
        self._install(proposed, hold=bool(payload["hold"]), channel=channel,
                      joiners=tuple(payload.get("joiners", ())),
                      departed=tuple(payload.get("departed", ())),
                      announcer=payload.get("from"))

    # -- installation -----------------------------------------------------------------------

    def _install(self, view: View, hold: bool, channel,
                 immediate: bool = False,
                 joiners: tuple[str, ...] = (),
                 departed: tuple[str, ...] = (),
                 announcer: Optional[str] = None) -> None:
        previous = set(self.view.members) if self.view is not None else set()
        self._known_peers.update(previous, view.members, joiners, departed)
        self._installed_history.add((view.view_id, tuple(view.members)))
        if view.stamp is not None:
            self._note_incarnation(view.stamp[0], view.stamp[1])
        self._view_stamp = view.stamp
        self.install_log.append(
            (channel.kernel.now(), view.view_id, tuple(view.members),
             tuple(departed)))
        self._target_view = None
        self._acks = {}
        self._cut_acks = set()
        self._cut = None
        self._install_announced = False
        self._last_status = None
        self._install_wait_ticks = 0
        if self.local in joiners:
            # (Re-)admitted from outside: whatever this node suspected
            # while isolated says nothing about the view it now trusts.
            self.suspected.clear()
            self.joining = False
        self.banned.update(departed)
        self.banned.difference_update(view.members)
        if self.local is not None and not view.includes(self.local) and \
                self.local not in self.banned:
            # The group cut this node out on suspicion (a false positive:
            # we are alive enough to receive the install).  Installing the
            # exclusion view alone would deadlock both sides forever if
            # the group's readmission install is then lost — the group
            # believes we are back (so never probes), we believe the
            # shrunken view (so never ask).  Re-enter joiner mode and keep
            # soliciting the surviving members until an install that
            # includes us lands.
            self.joining = True
            self._arm_retry(channel)
        self.pending_joiners -= set(view.members) | self.banned
        self._deliberate_excludes -= set(view.members)
        if joiners:
            self.joins_admitted += len(joiners)
        if announcer == self.local:
            # This node announced the installation: keep re-unicasting it
            # to the joiners for a few ticks (see _JOIN_ANNOUNCE_TICKS).
            others = tuple(j for j in joiners if j != self.local)
            if others:
                self._announce_joiners = others
                self._announce_ticks = _JOIN_ANNOUNCE_TICKS
        # Track suspicion-based losses for the probing loop: deliberately
        # departed members are not probed, members back in the view are no
        # longer lost.  Each lost peer gets its own backoff one-shot (the
        # probe loop no longer rides the periodic retry tick).
        lost = previous - set(view.members) - set(departed) - self.banned
        for peer in sorted(lost):
            if peer != self.local and peer not in self._lost_peers:
                self._arm_probe(peer, channel)
                # Floor the peer's incarnation history: if it ever claims
                # coordinatorship again, it must show an incarnation newer
                # than anything known at exclusion time — a zombie
                # replaying (or extending alone) its pre-crash lineage
                # cannot.
                self._note_incarnation(peer, 0)
        # Known peers outside the view are probed too, not only the ones
        # lost from the *previous* view: a joiner partitioned away before
        # it ever shared a view with us is invisible to the view-scoped
        # fan-out, and without a probe the two components never merge
        # after the heal.  No incarnation flooring here — a never-seen
        # peer's first coordinatorship claim must stay acceptable.
        missing = self._known_peers - set(view.members) - set(departed) \
            - self.banned
        for peer in sorted(missing):
            if peer != self.local and peer not in self._lost_peers:
                self._arm_probe(peer, channel)
        for peer in list(self._lost_peers):
            if view.includes(peer) or peer in self.banned:
                self._drop_probe(peer)
        self.suspected &= set(view.members)
        self.pending_leavers &= set(view.members)
        self.flushes_completed += 1
        if hold:
            self.phase = _Phase.HELD
            self.held_view = view
            if announcer == self.local and not immediate:
                # The announcer releases last, once every member has acked
                # the installation (the acknowledged release above).
                self._pending_quiescence = view
                self._install_acks.add(self.local)
                self._arm_retry(channel)
                self._release_if_acked(channel)
                return
            # A member (or a self-released straggler): ack to the announcer
            # and let the stack go.
            if announcer is not None and announcer != self.local:
                self._send_install_ack(view, announcer, channel)
            self._release_quiescence(view, channel)
            return
        self.phase = _Phase.STABLE
        self.held_view = None
        self._absorb_view(view)
        # Down first: the layers below (reliable, dissemination) must adopt
        # the new view/epoch *before* the view-synchrony layer above releases
        # any queued sends — the kernel dispatches FIFO, so this ordering
        # guarantees a released send is sequenced in the new epoch.
        self.send_down(ViewEvent(view, joiners=tuple(joiners)),
                       channel=channel)
        self.send_up(ViewEvent(view, joiners=tuple(joiners)),
                     channel=channel)
        outstanding_joiners = self.pending_joiners - set(view.members)
        if self.local is not None and view.includes(self.local) and \
                self._flush_coordinator() == self.local and \
                (self.suspected or self.pending_leavers or
                 outstanding_joiners):
            # More changes queued up during the flush: change again.
            self._start_flush(hold=False, channel=channel)
        elif not (self.suspected or self.pending_leavers or
                  self._announce_ticks > 0 or self.joining):
            self._stop_retry()

    def _release_quiescence(self, view: View, channel) -> None:
        self._stop_retry()
        self.send_up(QuiescentEvent(view), channel=channel)
        if self.quiescence_listener is not None:
            self.quiescence_listener(view)


@register_layer
class MembershipLayer(Layer):
    """Group membership and view-synchronous flush.

    Parameters: ``members`` (bootstrap CSV), ``group``, ``view_id``
    (bootstrap view identifier, used by reconfiguration to continue the
    view sequence), ``join`` (joiner mode: solicit admission from the
    bootstrap peers instead of self-installing).
    """

    layer_name = "membership"
    accepted_events = (MembershipMessage, SuspectEvent, UnsuspectEvent,
                       StrangerEvent, TriggerViewChangeEvent,
                       LeaveRequestEvent, FlushStatusEvent, CutReachedEvent,
                       TimerEvent, ViewEvent)
    provided_events = (MembershipMessage, ViewEvent, BlockEvent,
                       QuiescentEvent, FlushQueryEvent, FlushCutEvent)
    session_class = MembershipSession
