"""Reliable FIFO multicast with NACK-driven retransmission.

Sits directly above the dissemination layer (best-effort multicast, Mecho
or gossip) and below the membership/view-synchrony pair.  Responsibilities:

* assign per-sender sequence numbers to every
  :class:`~repro.protocols.events.SequencedEvent` sent to the group;
* deliver messages **per-sender FIFO** (buffer out-of-order arrivals);
* detect gaps and recover them with point-to-point NACKs; any node that
  already delivered a message can serve its retransmission, which is what
  lets a flush complete even when the original sender has left;
* answer the membership layer's flush protocol: report the local traffic
  vector (:class:`FlushStatusEvent`), then drive delivery up to the agreed
  cut and announce :class:`CutReachedEvent` — the view-synchrony guarantee
  that *"those channels become in a quiescent state"* (paper §3.3).

State is reset when a new view is installed: view synchrony guarantees all
members share the same delivery cut, so sequence numbers restart at 1 and
the retransmission store is cleared.  Within a view the store is bounded by
a stability round at the view coordinator (:class:`StabilityMessage`): a
message every member has delivered can never be NACKed, so every store
drops it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.kernel.events import Direction, Event, TimerEvent
from repro.kernel.layer import Layer
from repro.kernel.message import Message
from repro.kernel.packet import EachOf
from repro.kernel.registry import register_layer
from repro.protocols.base import GroupSession
from repro.protocols.events import (GROUP_DEST, CutReachedEvent,
                                    FlushCutEvent, FlushQueryEvent,
                                    FlushStatusEvent, NackMessage,
                                    RetransmissionMessage, SequencedEvent,
                                    StabilityMessage, SyncMessage, ViewEvent)

_HEADER_TAG = "rm"
_NACK_TIMER = "rm-nack-scan"

#: Quiet sender periods (in gap-scan ticks) before a high-water-mark
#: advertisement is multicast; tail-loss protection (see SyncMessage).
#: Sized so that a steady chat stream (sends every second or faster, with
#: the default 0.25 s scan) never triggers adverts mid-stream — only a true
#: end-of-burst does.  A lower value would double a slow sender's traffic.
_SYNC_AFTER_IDLE_TICKS = 8

#: Times the same high-water mark is re-advertised (adverts are themselves
#: best-effort; repetition drives the residual loss probability down).
_SYNC_MAX_REPEATS = 8

#: Store entries a member adds between two stability reports to the view
#: coordinator.  A round closes once every member has reported, so the
#: store holds about two reports' worth of entries; a view with little
#: traffic never fills one and sends nothing.  Sized so that one round
#: (one report from each member plus one stable fan-out) costs well under
#: 1 % of the data packets it covers.
_STABILITY_REPORT_EVERY = 512
#: Most sequence numbers one NACK asks for.
_MAX_NACK_BATCH = 64


@dataclass(slots=True)
class _StoredMessage:
    """Snapshot of a delivered message, kept for retransmission.

    ``message`` is an O(1) copy-on-write handle: it shares the delivered
    message's structure, and every retransmission serves a fresh handle, so
    the store never deep-copies (receivers popping headers cannot reach the
    stored view — see :mod:`repro.kernel.message`)."""

    cls: type
    message: Message


class ReliableMulticastSession(GroupSession):
    """Sequencing, reordering and recovery state."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.nack_interval: float = float(layer.params.get("nack_interval", 0.25))
        self.next_seqno = 1
        self.delivered: dict[str, int] = {}
        self.pending: dict[str, dict[int, _StoredMessage]] = {}
        self.store: dict[tuple[str, int], _StoredMessage] = {}
        self.cut: Optional[dict[str, int]] = None
        self.cut_coordinator: Optional[str] = None
        self.cut_announced = False
        self._scan_handle = None
        #: View epoch stamped on every wire artifact.  Sequence numbers
        #: restart at each view, so a NACK, retransmission or sync from the
        #: previous view must never be interpreted in the new one — without
        #: the epoch tag, an in-flight retransmission arriving just after a
        #: view change would be delivered as a (duplicate) fresh message.
        #: The epoch folds in the view's installation stamp (announcer +
        #: incarnation): divergent lineages burn through the same view ids
        #: independently, and a bare-id epoch re-used after a readmission
        #: would let stale syncs re-deliver a whole view's traffic.
        self.epoch = -1
        # Tail-loss protection state.
        self._idle_ticks = 0
        self._advertised_own = 0
        self._sync_repeats = 0
        self._advertised: dict[str, int] = {}
        #: Consecutive gap scans per sender with no progress: rotates the
        #: NACK target (see :meth:`_nack_target`) so recovery survives a
        #: source that will never answer again.
        self._nack_rounds: dict[str, int] = {}
        # Stability round state: entries stored since this member's last
        # report; at the coordinator, the reports of the open round and
        # the stable vector last sent.
        self._unreported = 0
        self._reports: dict[str, dict[str, int]] = {}
        self._stable: dict[str, int] = {}
        #: Diagnostics for tests and the control-overhead ablation.
        self.duplicates_dropped = 0
        #: Frames from a stack with different framing (generation skew
        #: during reconfiguration) — dropped, recovered by retransmission.
        self.foreign_dropped = 0
        self.nacks_sent = 0
        self.retransmissions_served = 0
        self.syncs_sent = 0

    # -- lifecycle ----------------------------------------------------------

    def on_channel_init(self, event: Event) -> None:
        """Deliberately arms nothing.

        The gap scan is armed on demand (first send, first gap, first
        advert, flush cut) and stops itself when nothing is outstanding,
        so an idle channel costs zero timer events.  The seed revision
        armed a periodic ``nack_interval`` tick here for the lifetime of
        the channel — at 100 nodes x 2 channels x 4 scans/s that idle
        tick was the single largest timer consumer of the churn sweep.
        """

    def _ensure_scan(self, channel) -> None:
        self._scan_handle = self.arm_on_demand(
            self._scan_handle, self.nack_interval, _NACK_TIMER, channel)

    def _stop_scan(self) -> None:
        self._scan_handle = self.stop_timer(self._scan_handle)

    def _scan_needed(self) -> bool:
        """Is there outstanding work only the tick loop can finish?"""
        if self.pending:
            return True  # known gaps to re-NACK until repaired
        if self.cut is not None and not self.cut_announced:
            return True  # flush in progress: chase the cut
        for sender, high in self._advertised.items():
            if self.delivered.get(sender, 0) < high:
                return True  # advertised messages we have not seen
        sent = self.next_seqno - 1
        # Tail-loss adverts still owed for our own traffic.
        return sent > 0 and (sent > self._advertised_own or
                             self._sync_repeats < _SYNC_MAX_REPEATS)

    def on_view(self, event: ViewEvent) -> None:
        """New view: restart sequencing with a clean, agreed state."""
        self.epoch = (event.view.view_id,) + (event.view.stamp or ("", 0))
        self.next_seqno = 1
        self.delivered = {member: 0 for member in event.view.members}
        self.pending.clear()
        self.store.clear()
        self.cut = None
        self.cut_coordinator = None
        self.cut_announced = False
        self._idle_ticks = 0
        self._advertised_own = 0
        self._advertised.clear()
        self._nack_rounds.clear()
        self._unreported = 0
        self._reports.clear()
        self._stable = {}

    # -- dispatch --------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        if isinstance(event, TimerEvent):
            if event.tag == _NACK_TIMER:
                self._scan_for_gaps(event.channel)
                if not self._scan_needed():
                    self._stop_scan()
            return
        if isinstance(event, FlushQueryEvent):
            self.send_up(FlushStatusEvent(self.next_seqno - 1, self.delivered),
                         channel=event.channel)
            return
        if isinstance(event, FlushCutEvent):
            self.cut = event.cut
            self.cut_coordinator = event.coordinator
            self.cut_announced = False
            self._check_cut(event.channel)
            self._scan_for_gaps(event.channel)
            if not self.cut_announced:
                self._ensure_scan(event.channel)
            return
        if isinstance(event, NackMessage) and event.direction is Direction.UP:
            self._serve_nack(event)
            return
        if isinstance(event, SyncMessage) and event.direction is Direction.UP:
            payload = self.payload_of(event)
            if payload["from"] != self.local and \
                    payload["epoch"] == self.epoch:
                self._advertised[payload["from"]] = max(
                    self._advertised.get(payload["from"], 0),
                    payload["sent"])
                self._scan_for_gaps(event.channel)
                if self._scan_needed():
                    self._ensure_scan(event.channel)
            return
        if isinstance(event, RetransmissionMessage) and \
                event.direction is Direction.UP:
            self._absorb_retransmission(event)
            return
        if isinstance(event, StabilityMessage) and \
                event.direction is Direction.UP:
            payload = self.payload_of(event)
            if payload["epoch"] != self.epoch:
                return  # a round of another view
            if "stable" in payload:
                self._trim(payload["stable"])
            else:
                self._on_report(payload["from"], payload["delivered"],
                                event.channel)
            return
        if isinstance(event, SequencedEvent):
            if event.direction is Direction.DOWN and self.is_group_dest(event):
                self._sequence_outgoing(event)
                return
            if event.direction is Direction.UP:
                self._receive(event)
                return
        event.go()

    # -- outgoing ---------------------------------------------------------------

    def _sequence_outgoing(self, event: SequencedEvent) -> None:
        assert self.local is not None, "reliable layer used before ChannelInit"
        seqno = self.next_seqno
        self.next_seqno += 1
        self._idle_ticks = 0
        # Having sent, we owe tail-loss adverts once the stream goes
        # quiet — make sure the scan loop is ticking to count idleness.
        self._ensure_scan(event.channel)
        event.message.push_header((_HEADER_TAG, self.local, seqno,
                                   self.epoch))
        event.go()

    # -- incoming ----------------------------------------------------------------

    def _receive(self, event: SequencedEvent) -> None:
        channel = event.channel
        if event.message.header_depth == 0:
            self.foreign_dropped += 1  # headerless frame (generation skew)
            return
        header = event.message.pop_header()
        if not (isinstance(header, tuple) and len(header) == 4 and
                header[0] == _HEADER_TAG):
            # Differently-framed stack on the same port (members swap
            # generations at slightly different instants): not ours.
            self.foreign_dropped += 1
            return
        _tag, sender, seqno, epoch = header
        if epoch != self.epoch:
            self.duplicates_dropped += 1  # stale (or early) epoch artifact
            return
        snapshot = _StoredMessage(cls=type(event), message=event.message.copy())
        self._ingest(sender, seqno, snapshot, channel)

    def _absorb_retransmission(self, event: RetransmissionMessage) -> None:
        payload = self.payload_of(event)
        if payload["epoch"] != self.epoch:
            self.duplicates_dropped += 1
            return
        snapshot = _StoredMessage(cls=payload["cls"],
                                  message=payload["msg"].copy())
        self._ingest(payload["sender"], payload["seqno"], snapshot,
                     event.channel)

    def _ingest(self, sender: str, seqno: int, snapshot: _StoredMessage,
                channel) -> None:
        expected = self.delivered.get(sender, 0) + 1
        queue = self.pending.get(sender)
        if seqno < expected or (queue is not None and seqno in queue):
            self.duplicates_dropped += 1
            return
        if seqno > expected:
            self.pending.setdefault(sender, {})[seqno] = snapshot
            self._ensure_scan(channel)  # a gap to NACK until repaired
            return
        self._deliver(sender, seqno, snapshot, channel)
        self._drain_pending(sender, channel)
        self._check_cut(channel)

    def _deliver(self, sender: str, seqno: int, snapshot: _StoredMessage,
                 channel) -> None:
        # In-order progress (the gap at the head was repaired): recovery
        # works, so the next NACK for this sender starts at the source
        # again.  Out-of-order arrivals must NOT reset the rotation — a
        # live source streaming past a permanent gap would otherwise pin
        # every retry onto itself, even when it can no longer answer.
        self._nack_rounds.pop(sender, None)
        self.delivered[sender] = seqno
        self.store[(sender, seqno)] = snapshot
        fresh = snapshot.cls(message=snapshot.message.copy(), source=sender,
                             dest=self.local)
        self.send_up(fresh, channel=channel)
        self._unreported += 1
        if self._unreported >= _STABILITY_REPORT_EVERY:
            self._report(channel)

    def _drain_pending(self, sender: str, channel) -> None:
        queue = self.pending.get(sender)
        if not queue:
            return
        while True:
            expected = self.delivered[sender] + 1
            snapshot = queue.pop(expected, None)
            if snapshot is None:
                break
            self._deliver(sender, expected, snapshot, channel)
        if not queue:
            self.pending.pop(sender, None)

    # -- recovery -------------------------------------------------------------------

    def _maybe_advertise(self, channel) -> None:
        """Tail-loss protection: advertise the high-water mark when idle."""
        sent = self.next_seqno - 1
        if sent == 0:
            return
        if sent > self._advertised_own:
            self._advertised_own = sent
            self._sync_repeats = 0
        elif self._sync_repeats >= _SYNC_MAX_REPEATS:
            return
        self._idle_ticks += 1
        if self._idle_ticks < _SYNC_AFTER_IDLE_TICKS:
            return
        self._idle_ticks = 0
        self._sync_repeats += 1
        sync = self.control_message(SyncMessage,
                                    {"from": self.local, "sent": sent,
                                     "epoch": self.epoch},
                                    dest=GROUP_DEST, source=self.local)
        self.syncs_sent += 1
        self.send_down(sync, channel=channel)

    def _scan_for_gaps(self, channel) -> None:
        """Request every known-missing sequence number, batched per sender."""
        assert self.local is not None
        self._maybe_advertise(channel)
        wanted: dict[str, list[int]] = {}
        for sender, queue in self.pending.items():
            expected = self.delivered.get(sender, 0) + 1
            horizon = max(queue)
            missing = [seq for seq in range(expected, horizon)
                       if seq not in queue]
            if missing:
                wanted.setdefault(sender, []).extend(missing)
        for sender, high in self._advertised.items():
            expected = self.delivered.get(sender, 0) + 1
            queue = self.pending.get(sender)
            missing = [seq for seq in range(expected, high + 1)
                       if queue is None or seq not in queue]
            if missing:
                wanted.setdefault(sender, []).extend(missing)
        if self.cut is not None:
            for sender, high in self.cut.items():
                expected = self.delivered.get(sender, 0) + 1
                queue = self.pending.get(sender)
                missing = [seq for seq in range(expected, high + 1)
                           if queue is None or seq not in queue]
                if missing:
                    wanted.setdefault(sender, []).extend(missing)
        for sender, seqs in wanted.items():
            unique = sorted(set(seqs))[:_MAX_NACK_BATCH]
            rounds = self._nack_rounds.get(sender, 0)
            target = self._nack_target(sender, rounds)
            if target is None or target == self.local:
                continue
            self._nack_rounds[sender] = rounds + 1
            nack = self.control_message(
                NackMessage,
                {"from": self.local, "sender": sender, "seqs": unique,
                 "epoch": self.epoch},
                dest=target, source=self.local)
            self.nacks_sent += 1
            self.send_down(nack, channel=channel)

    def _nack_target(self, sender: str, rounds: int = 0) -> Optional[str]:
        """Whom to ask for ``sender``'s missing messages.

        The source goes first (it always holds its own traffic), but any
        member that delivered a message keeps a copy in ``store`` and
        :meth:`_serve_nack` serves other senders' messages too — so after
        a scan tick with no progress the request rotates through the
        remaining members.  Without the rotation a source that will never
        answer (crashed mid-flush, or already swapped to the next channel
        generation during a reconfiguration) wedges every peer that still
        needs one of its messages to reach the agreed cut.
        """
        candidates = []
        if sender in self.members and sender != self.local:
            candidates.append(sender)
        for member in sorted(self.members):
            if member != self.local and member != sender:
                candidates.append(member)
        if self.cut_coordinator and self.cut_coordinator != self.local \
                and self.cut_coordinator not in candidates:
            candidates.append(self.cut_coordinator)
        if not candidates:
            return None
        return candidates[rounds % len(candidates)]

    def _serve_nack(self, event: NackMessage) -> None:
        payload = self.payload_of(event)
        if payload["epoch"] != self.epoch:
            return  # stale request from a previous view
        requester = payload["from"]
        sender = payload["sender"]
        for seqno in payload["seqs"]:
            snapshot = self.store.get((sender, seqno))
            if snapshot is None:
                continue
            retrans = self.control_message(
                RetransmissionMessage,
                {"sender": sender, "seqno": seqno, "cls": snapshot.cls,
                 "msg": snapshot.message.copy(), "epoch": self.epoch},
                dest=requester, source=self.local)
            self.retransmissions_served += 1
            self.send_down(retrans, channel=event.channel)

    # -- stability -------------------------------------------------------------------

    def _report(self, channel) -> None:
        """Send the delivered vector to the view coordinator."""
        if self.view is None:
            return
        self._unreported = 0
        coordinator = self.view.coordinator
        if coordinator == self.local:
            self._on_report(self.local, dict(self.delivered), channel)
            return
        self.send_down(self.control_message(
            StabilityMessage,
            {"from": self.local, "delivered": dict(self.delivered),
             "epoch": self.epoch},
            dest=coordinator, source=self.local), channel=channel)

    def _on_report(self, member: str, delivered: dict[str, int],
                   channel) -> None:
        """Coordinator: close the round once every member has reported,
        and fan the element-wise minimum out if it moved forward."""
        self._reports[member] = delivered
        if len(self._reports) < len(self.view.members):
            return
        stable = {sender: min(report.get(sender, 0)
                              for report in self._reports.values())
                  for sender in self.view.members}
        self._reports.clear()
        if all(high <= self._stable.get(sender, 0)
               for sender, high in stable.items()):
            return
        self._stable = stable
        others = self.others()
        if others:
            self.send_down(self.control_message(
                StabilityMessage, {"stable": stable, "epoch": self.epoch},
                dest=EachOf(others), source=self.local), channel=channel)
        self._trim(stable)

    def _trim(self, stable: dict[str, int]) -> None:
        """Drop the stored messages every member has delivered."""
        self.store = {key: snapshot for key, snapshot in self.store.items()
                      if key[1] > stable.get(key[0], 0)}

    # -- flush / cut -------------------------------------------------------------------

    def _check_cut(self, channel) -> None:
        if self.cut is None or self.cut_announced:
            return
        for sender, high in self.cut.items():
            if self.delivered.get(sender, 0) < high:
                return
        self.cut_announced = True
        self.send_up(CutReachedEvent(self.cut), channel=channel)


@register_layer
class ReliableMulticastLayer(Layer):
    """Reliable FIFO multicast with NACK recovery and flush support.

    Parameters: ``nack_interval`` (gap-scan period, seconds), plus the
    common ``group``/``members``.
    """

    layer_name = "reliable"
    accepted_events = (SequencedEvent, NackMessage, RetransmissionMessage,
                       SyncMessage, StabilityMessage, FlushQueryEvent,
                       FlushCutEvent, TimerEvent, ViewEvent)
    provided_events = (NackMessage, RetransmissionMessage, SyncMessage,
                       StabilityMessage, FlushStatusEvent, CutReachedEvent)
    session_class = ReliableMulticastSession
