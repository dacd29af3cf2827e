"""Discrete-event simulation engine — bucketed timer wheel with heap overflow.

One :class:`SimEngine` drives a whole distributed run: it owns virtual time,
the scheduled-callback queue, and implements the kernel
:class:`~repro.kernel.clock.Clock` protocol so every node's protocol timers
and every in-flight packet share a single, deterministic timeline.

Scheduling structure (the dispatch-loop optimisation the ROADMAP's
"batch timer wheels or slot-based gap scans" item asks for):

* **wheel** — near-future entries land in one of :data:`WHEEL_SLOTS` bucket
  lists of :data:`SLOT_WIDTH_S` seconds each, an O(1) append.  Expiry
  drains a whole slot at once: the bucket is heapified and fired in exact
  ``(when, seq)`` order, so batching is invisible to the semantics.
* **overflow heap** — entries beyond the wheel horizon (a few seconds; the
  long tail: suspect timeouts, probe back-off one-shots) fall back to a
  binary heap and are promoted when the wheel cursor reaches their slot.
* **cancellation** is lazy and O(1) everywhere: a cancelled entry is
  flagged, uncounted, and discarded whenever its bucket is drained.

Determinism contract (unchanged from the heap era, and checked by the
differential tests against :class:`HeapSimEngine`): callbacks scheduled for
the same instant fire in scheduling order, callbacks for different instants
fire in time order, and nothing in the engine (or in any protocol built on
it) reads the wall clock or unseeded randomness.

:class:`HeapSimEngine` is the seed-era single-binary-heap scheduler, kept
as the reference oracle: the batching parity tests run whole scenarios on
both engines and assert equal results, the engine test suite drives random
schedules through both and compares firing orders, and the scenario fuzzer
replays a sample of its runs on the heap.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional

#: Width of one wheel slot, in virtual seconds.  A power-of-two reciprocal
#: keeps ``when / width`` exact for the binary-friendly delays protocols
#: use (0.25 s NACK scans, 0.5 s retries, millisecond link latencies).
SLOT_WIDTH_S = 1.0 / 64.0

#: Number of slots; horizon = ``WHEEL_SLOTS * SLOT_WIDTH_S`` = 8 s.  Within
#: the horizon scheduling is an O(1) list append; beyond it entries take
#: the overflow heap (heartbeats at 5 s+ margins, probe back-off, scenario
#: schedules).
WHEEL_SLOTS = 512

#: Slot of virtual time ``t`` is ``int(t * _INV_SLOT_WIDTH)`` — a multiply
#: (exact for the power-of-two width) instead of a division on the hot path.
_INV_SLOT_WIDTH = 1.0 / SLOT_WIDTH_S


class ScheduledCall:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("when", "seq", "callback", "cancelled", "_engine")

    def __init__(self, when: float, seq: int, callback: Callable[[], None],
                 engine: Optional["SimEngine"] = None) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent, O(1)).

        The entry is only flagged: it stays in its bucket (or heap) until
        the drain naturally discards it — no search, no re-heapify.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._engine is not None:
                # Still pending: uncount it.  A cancel after the entry
                # fired (the engine detached itself) is a no-op.
                self._engine._live -= 1
                self._engine = None

    def __lt__(self, other: "ScheduledCall") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


class SimEngine:
    """Virtual clock plus timer-wheel event queue for a simulation run.

    Implements the kernel ``Clock`` protocol (:meth:`now` /
    :meth:`call_later`), so it is passed directly as the ``clock`` of every
    node's :class:`~repro.kernel.scheduler.Kernel`.
    """

    def __init__(self) -> None:
        self._init_clock_state()
        # Wheel state.  ``_cursor`` is the absolute (monotonic, unwrapped)
        # index of the slot currently being drained; bucket ``s`` lives at
        # ``_wheel[s % WHEEL_SLOTS]``.  The single-revolution invariant —
        # every entry in the wheel has ``_cursor < slot <= _cursor +
        # WHEEL_SLOTS`` — guarantees a bucket never mixes revolutions.
        self._wheel: list[list[ScheduledCall]] = \
            [[] for _ in range(WHEEL_SLOTS)]
        self._cursor = 0
        #: Entries sitting in wheel buckets (cancelled ones included until
        #: their bucket is drained); lets refill skip the slot scan when
        #: the wheel is empty.
        self._wheel_count = 0
        # The ordered structures hold ``(when, seq, entry)`` triples:
        # comparisons stay on the C tuple path ((when, seq) is unique, so
        # the entry itself is never compared), which is what keeps the
        # per-slot heapify cheaper than the reference heap's per-event
        # Python ``__lt__`` calls.
        #: Current slot's due entries, ordered by ``(when, seq)``.
        self._batch: list[tuple[float, int, ScheduledCall]] = []
        #: Far-future entries, ordered by ``(when, seq)``.
        self._overflow: list[tuple[float, int, ScheduledCall]] = []
        #: Entries that went to the overflow heap (diagnostics/benchmarks).
        self.overflow_scheduled = 0

    def _init_clock_state(self) -> None:
        """State shared with the reference scheduler (clock + counters)."""
        self._now = 0.0
        self._seq = itertools.count()
        #: Total callbacks executed; exposed for benchmarks and debugging.
        self.fired_count = 0
        #: Scheduled, not-yet-cancelled, not-yet-fired entries.  Maintained
        #: on push/fire/cancel so :attr:`pending` is O(1) — scenario
        #: runners poll it for progress checks.
        self._live = 0
        #: Deadline of the active :meth:`run_until`, ``inf`` outside one.
        #: External batchers (the network's same-slot delivery drain) must
        #: not advance work past it — see :attr:`run_deadline`.
        self._deadline = math.inf

    # -- Clock protocol -----------------------------------------------------

    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    def call_later(self, delay: float,
                   callback: Callable[[], None]) -> ScheduledCall:
        """Schedule ``callback`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, callback)

    def call_at(self, when: float,
                callback: Callable[[], None]) -> ScheduledCall:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        return self.schedule_at_seq(when, next(self._seq), callback)

    def reserve_seq(self) -> int:
        """Consume and return the next scheduling sequence number.

        The delivery batcher reserves a seq per queued packet at routing
        time — exactly where scheduling the packet as its own entry would
        have consumed it — so the seq stream every *other* callback
        observes is that of a one-entry-per-packet schedule, and the
        reserved ``(when, seq)`` pair totally orders the queued packet
        against engine entries.
        """
        return next(self._seq)

    def schedule_at_seq(self, when: float, seq: int,
                        callback: Callable[[], None]) -> ScheduledCall:
        """Schedule ``callback`` at ``when`` under a reserved ``seq``.

        Unlike :meth:`call_at` this consumes no new sequence number: the
        entry fires exactly where a callback scheduled when ``seq`` was
        reserved would have fired.  Used to place the batcher's flush at
        its queue head's ``(when, seq)`` without perturbing the seq stream.
        """
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        entry = ScheduledCall(when, seq, callback, engine=self)
        slot = int(when * _INV_SLOT_WIDTH)
        if slot <= self._cursor:
            # Due within the slot being drained (or earlier — the cursor
            # may sit ahead of ``now`` right after a refill or a
            # ``run_until`` deadline): join the current batch directly.
            heapq.heappush(self._batch, (when, seq, entry))
        elif slot - self._cursor <= WHEEL_SLOTS:
            self._wheel[slot % WHEEL_SLOTS].append(entry)
            self._wheel_count += 1
        else:
            heapq.heappush(self._overflow, (when, seq, entry))
            self.overflow_scheduled += 1
        self._live += 1
        return entry

    def peek_due(self) -> Optional[tuple[float, int]]:
        """``(when, seq)`` of the earliest *visible* live entry, else None.

        "Visible" means cheaply reachable without disturbing the wheel: the
        current slot's batch.  ``None`` guarantees every remaining entry
        lies at or beyond the current slot's end — the contract the
        delivery batcher needs (it never drains past its own slot), NOT a
        claim that the engine is idle.  O(1) amortized.
        """
        batch = self._batch
        while batch:
            when, seq, entry = batch[0]
            if entry.cancelled:
                heapq.heappop(batch)
                continue
            return (when, seq)
        return None

    def advance_clock(self, when: float) -> None:
        """Advance virtual time to ``when`` (never backwards).

        For external batchers running work the engine itself did not fire:
        the drained callback must observe the instant it was scheduled for.
        Callers are responsible for only advancing to instants no earlier
        than every remaining scheduled entry they could overtake.
        """
        if when > self._now:
            self._now = when

    @property
    def run_deadline(self) -> float:
        """Deadline of the active :meth:`run_until` (``inf`` outside one)."""
        return self._deadline

    # -- wheel internals ------------------------------------------------------

    def _advance(self) -> Optional[ScheduledCall]:
        """Return the earliest live entry, arranging ``_batch`` so that the
        entry is its head; ``None`` when nothing is scheduled."""
        while True:
            batch = self._batch
            while batch:
                entry = batch[0][2]
                if entry.cancelled:
                    heapq.heappop(batch)
                    continue
                return entry
            if not self._refill():
                return None

    def _refill(self) -> bool:
        """Advance the cursor to the next occupied slot and load its batch.

        The next slot is the earlier of the wheel's next non-empty bucket
        and the overflow head's slot; overflow entries due in that slot are
        promoted into the batch, preserving exact ``(when, seq)`` order.
        """
        wheel_slot = None
        if self._wheel_count:
            # Single-revolution invariant: the next occupied bucket is at
            # most WHEEL_SLOTS ahead, so this scan terminates (and in the
            # dense schedules of a live run it terminates immediately).
            wheel = self._wheel
            slot = self._cursor + 1
            while not wheel[slot % WHEEL_SLOTS]:
                slot += 1
            wheel_slot = slot
        overflow = self._overflow
        while overflow and overflow[0][2].cancelled:
            heapq.heappop(overflow)
        overflow_slot = int(overflow[0][0] * _INV_SLOT_WIDTH) if overflow \
            else None
        if wheel_slot is None and overflow_slot is None:
            return False
        if overflow_slot is not None and \
                (wheel_slot is None or overflow_slot < wheel_slot):
            cursor = overflow_slot
        else:
            cursor = wheel_slot
        self._cursor = cursor
        batch = self._batch
        bucket = self._wheel[cursor % WHEEL_SLOTS] if wheel_slot == cursor \
            else None
        if bucket:
            self._wheel[cursor % WHEEL_SLOTS] = []
            self._wheel_count -= len(bucket)
            if batch:
                for entry in bucket:
                    if not entry.cancelled:
                        heapq.heappush(batch, (entry.when, entry.seq, entry))
            else:
                # Batch-fire path: heapify the whole slot in one go.
                batch.extend((entry.when, entry.seq, entry)
                             for entry in bucket if not entry.cancelled)
                heapq.heapify(batch)
        # Promote overflow entries that belong to (or before) this slot.
        slot_end = (cursor + 1) * SLOT_WIDTH_S
        while overflow and overflow[0][0] < slot_end:
            item = heapq.heappop(overflow)
            if not item[2].cancelled:
                heapq.heappush(batch, item)
        return True

    def _scan_live(self) -> list[ScheduledCall]:
        """Every live (scheduled, uncancelled) entry — O(n) debugging aid;
        the exactness tests compare its length against :attr:`pending`."""
        entries = [item[2] for item in self._batch if not item[2].cancelled]
        for bucket in self._wheel:
            entries.extend(e for e in bucket if not e.cancelled)
        entries.extend(item[2] for item in self._overflow
                       if not item[2].cancelled)
        return entries

    # -- execution ------------------------------------------------------------

    def _pop_head(self) -> None:
        """Discard the head entry that :meth:`_advance` just arranged.

        Engine-structure-specific (batch vs single heap); having it as a
        primitive lets :meth:`step` serve both engines.
        """
        heapq.heappop(self._batch)

    def step(self) -> bool:
        """Run the next scheduled callback.  Returns False when idle."""
        entry = self._advance()
        if entry is None:
            return False
        self._pop_head()
        self._fire(entry)
        return True

    def _fire(self, entry: ScheduledCall) -> None:
        self._now = max(self._now, entry.when)
        self._live -= 1
        entry._engine = None  # fired: late cancels must not uncount
        entry.callback()
        self.fired_count += 1

    def run_until(self, deadline: float) -> int:
        """Run every callback due up to ``deadline``; time ends at deadline."""
        fired = 0
        self._deadline = deadline
        try:
            while True:
                entry = self._advance()
                if entry is None or entry.when > deadline:
                    break
                heapq.heappop(self._batch)
                self._fire(entry)
                fired += 1
        finally:
            self._deadline = math.inf
        self._now = max(self._now, deadline)
        return fired

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run until no callbacks remain.  Guards against livelock."""
        fired = 0
        while self.step():
            fired += 1
            if fired > max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; livelock?")
        return fired

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-cancelled callbacks — O(1)."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} t={self._now:.6f}s pending={self.pending}>"


class HeapSimEngine(SimEngine):
    """The seed-era scheduler: one binary heap, popped an entry at a time.

    Kept as the reference implementation for differential testing and for
    before/after benchmarking — it must stay observably identical to
    :class:`SimEngine` (same firing order, same ``pending`` accounting)
    while paying O(log n) per operation instead of the wheel's amortized
    O(1) schedule and batched slot expiry.
    """

    def __init__(self) -> None:
        # Deliberately not super().__init__(): the wheel structures would
        # be dead weight here — every method that touches them is
        # overridden to use the single heap.
        self._init_clock_state()
        self._heap: list[ScheduledCall] = []
        self.overflow_scheduled = 0  # structurally always zero on a heap

    def schedule_at_seq(self, when: float, seq: int,
                        callback: Callable[[], None]) -> ScheduledCall:
        """Schedule under a reserved ``seq`` (see :class:`SimEngine`)."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        entry = ScheduledCall(when, seq, callback, engine=self)
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def peek_due(self) -> Optional[tuple[float, int]]:
        """``(when, seq)`` of the globally earliest live entry, else None.

        The heap sees everything, so this is strictly more informative than
        the wheel's batch-only peek — but the delivery batcher bounds its
        drain by its own slot's end, and everything the wheel's peek hides
        lies at or beyond that bound, so both engines reach identical
        batching decisions (asserted by the differential tests).
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head.cancelled:
                heapq.heappop(heap)
                continue
            return (head.when, head.seq)
        return None

    def _advance(self) -> Optional[ScheduledCall]:
        heap = self._heap
        while heap:
            head = heap[0]
            if head.cancelled:
                heapq.heappop(heap)
                continue
            return head
        return None

    def _pop_head(self) -> None:
        heapq.heappop(self._heap)

    def run_until(self, deadline: float) -> int:
        fired = 0
        self._deadline = deadline
        try:
            while True:
                entry = self._advance()
                if entry is None or entry.when > deadline:
                    break
                self._pop_head()
                self._fire(entry)
                fired += 1
        finally:
            self._deadline = math.inf
        self._now = max(self._now, deadline)
        return fired

    def _scan_live(self) -> list[ScheduledCall]:
        return [e for e in self._heap if not e.cancelled]
