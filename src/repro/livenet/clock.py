"""Wall-clock scheduler adapter: kernel timers on an asyncio event loop.

The kernel only ever talks to a :class:`~repro.kernel.clock.Clock`
(``now``/``call_later``), so binding the stack to real time is a clock
implementation, not a kernel change.  :class:`WallClock` keeps its own
``(when, seq)``-ordered heap — the exact total order
:class:`~repro.simnet.engine.SimEngine` fires in, same-instant entries
FIFO by sequence number — and arms **one** asyncio timer at the heap
head, re-arming as the head moves.  That keeps rearm/cancel semantics
(periodic rearm-on-fire, backoff advance, lazy cancellation) identical to
the simulated engine's, which the conformance suite depends on.

Two knobs make it testable and fast:

* ``time_source`` — the real monotonic time function.  Tests inject a
  hand-cranked fake and drive :meth:`poll` directly; live runs read
  :func:`time.monotonic`, the clock asyncio's own ``loop.time()`` reads,
  so loop timers and virtual time stay aligned.
* ``time_scale`` — virtual seconds per real second.  Scenarios are
  written in virtual seconds (heartbeats of 1 s, horizons of 60–90 s); a
  scale of 10 replays them 10× faster without touching a single protocol
  period, because every conversion to real time happens here.

Virtual time is **anchored lazily**: :meth:`now` reads 0 until
:meth:`start` (called by :meth:`run_until`) pins virtual 0 to the
current real instant.  Setup — opening sockets, booting nodes,
scheduling a scenario — therefore happens entirely at virtual t=0, just
as it does on the simulated engine.  Without the anchor, a slow
synchronous boot would silently consume virtual seconds before the
first timer ever fired, skewing every heartbeat/suspicion deadline of
the run (scaled 10×, a 300 ms boot is 3 virtual seconds — enough to
push a failure detector past its margin and fracture the group).
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from typing import Callable, Optional


class _WallEntry:
    """One scheduled callback; supports lazy cancellation."""

    __slots__ = ("when", "seq", "callback", "cancelled")

    def __init__(self, when: float, seq: int,
                 callback: Callable[[], None]) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "_WallEntry") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


class WallClock:
    """A :class:`~repro.kernel.clock.Clock` backed by real monotonic time.

    Args:
        time_source: monotonic seconds function; :func:`time.monotonic`
            (the event loop's clock) by default.
        time_scale: virtual seconds per real second (> 0).  ``1.0`` runs
            scenarios in real time; larger values compress them.
    """

    def __init__(self, time_source: Optional[Callable[[], float]] = None,
                 time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.time_scale = time_scale
        self._source = time_source if time_source is not None \
            else time.monotonic
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._heap: list[_WallEntry] = []
        self._seq = itertools.count()
        self._real_base: Optional[float] = None
        self._wakeup: Optional[asyncio.TimerHandle] = None
        self._wakeup_when: float = 0.0
        #: Callbacks fired so far (the engine-parity diagnostic counter).
        self.fired_count = 0

    # -- time -----------------------------------------------------------------

    def start(self) -> None:
        """Pin virtual 0 to the current real instant (idempotent).

        Until started, :meth:`now` reads 0 and no loop timer is armed:
        everything that happens during setup happens at virtual t=0,
        exactly like setup on the simulated engine.
        """
        if self._real_base is not None:
            return
        self._real_base = self._source()
        if self._loop is not None:
            self._rearm()

    @property
    def started(self) -> bool:
        return self._real_base is not None

    def now(self) -> float:
        """Current virtual time: scaled monotonic seconds since
        :meth:`start` (0 while not started)."""
        if self._real_base is None:
            return 0.0
        return (self._source() - self._real_base) * self.time_scale

    # -- scheduling -----------------------------------------------------------

    def call_later(self, delay: float,
                   callback: Callable[[], None]) -> _WallEntry:
        """Schedule ``callback`` after ``delay`` *virtual* seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.now() + delay, callback)

    def call_at(self, when: float,
                callback: Callable[[], None]) -> _WallEntry:
        """Schedule ``callback`` at virtual instant ``when`` (past = asap)."""
        entry = _WallEntry(when, next(self._seq), callback)
        heapq.heappush(self._heap, entry)
        if self._loop is not None:
            self._rearm()
        return entry

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled scheduled callbacks."""
        return sum(1 for entry in self._heap if not entry.cancelled)

    # -- firing ---------------------------------------------------------------

    def poll(self) -> int:
        """Fire every due entry in ``(when, seq)`` order; return the count.

        The async wakeup path and fake-clock tests share this drain, so
        both observe the exact same firing order the simulated engine
        would produce for the same schedule.
        """
        fired = 0
        heap = self._heap
        now = self.now()
        while heap and heap[0].when <= now:
            entry = heapq.heappop(heap)
            if entry.cancelled:
                continue
            entry.callback()
            fired += 1
            self.fired_count += 1
            now = self.now()
        return fired

    # -- asyncio integration --------------------------------------------------

    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind to ``loop``: due entries now fire from loop timers.

        Idempotent for the same loop; binding a second loop is an error
        (a clock is one timeline).
        """
        if self._loop is not None:
            if self._loop is not loop:
                raise RuntimeError("WallClock is already attached to "
                                   "another event loop")
            return
        self._loop = loop
        self._rearm()

    @property
    def attached(self) -> bool:
        return self._loop is not None

    def _rearm(self) -> None:
        if self._real_base is None:
            return  # not started: nothing may fire yet, so arm nothing
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        if not heap:
            if self._wakeup is not None:
                self._wakeup.cancel()
                self._wakeup = None
            return
        head_when = heap[0].when
        if self._wakeup is not None:
            if self._wakeup_when <= head_when:
                return  # armed early enough; a spurious wakeup re-arms
            self._wakeup.cancel()
        delay_real = max(0.0, (head_when - self.now()) / self.time_scale)
        self._wakeup_when = head_when
        self._wakeup = self._loop.call_later(delay_real, self._on_wakeup)

    def _on_wakeup(self) -> None:
        self._wakeup = None
        self.poll()
        self._rearm()

    async def run_until(self, deadline: float) -> None:
        """Sleep (really) until virtual ``deadline``, letting timers fire.

        Starts the clock (see :meth:`start`) on entry: virtual time
        begins to flow only once the run does.
        """
        self.start()
        self._rearm()
        while True:
            remaining = deadline - self.now()
            if remaining <= 0:
                return
            await asyncio.sleep(remaining / self.time_scale)

    def shutdown(self) -> None:
        """Cancel the armed wakeup (end of run; pending entries are kept)."""
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
