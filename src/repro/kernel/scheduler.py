"""The per-node kernel: event queue and run-to-completion dispatch.

Each node of the distributed system runs one :class:`Kernel` instance hosting
all of that node's channels (data channels, the Cocaditem/Core control
channel, ...).  Events are dispatched FIFO across channels, breadth-first —
an event forwarded with :meth:`~repro.kernel.events.Event.go` is enqueued
behind events that are already pending, exactly as in Appia's scheduler.

The kernel is single-threaded and *reactive*: any insertion (a network packet
arriving, a timer firing, the application sending) triggers a run-to-
completion dispatch loop unless one is already active.  Within one virtual
instant every causally triggered event is processed before control returns.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.kernel.clock import Clock, ManualClock
from repro.kernel.events import Event, TimerEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.channel import Channel


class Kernel:
    """Event scheduler shared by all channels of one node.

    Args:
        clock: virtual clock backing timers; defaults to a private
            :class:`~repro.kernel.clock.ManualClock` (convenient in tests).
        name: diagnostic label, usually the hosting node's identifier.
    """

    def __init__(self, clock: Optional[Clock] = None, name: str = "") -> None:
        self.clock: Clock = clock if clock is not None else ManualClock()
        self.name = name
        self._queue: deque[Event] = deque()
        self._dispatching = False
        self._channels: list["Channel"] = []
        #: Total events dispatched; exposed for the kernel micro-benchmarks.
        self.dispatched_count = 0
        #: Timer events among them.  Benchmarks use the split to attribute
        #: dispatch-loop load to timer ticks (probe retries, heartbeats)
        #: versus traffic — the quantity the one-shot timer work targets.
        self.timer_dispatched_count = 0

    # -- clock convenience ---------------------------------------------------

    def now(self) -> float:
        """Current virtual time of this node's clock."""
        return self.clock.now()

    # -- channel registry ----------------------------------------------------

    def _register_channel(self, channel: "Channel") -> None:
        if channel not in self._channels:
            self._channels.append(channel)

    def _unregister_channel(self, channel: "Channel") -> None:
        if channel in self._channels:
            self._channels.remove(channel)

    @property
    def channels(self) -> tuple["Channel", ...]:
        """Channels currently registered with this kernel."""
        return tuple(self._channels)

    def cancel_timers(self) -> None:
        """Cancel the live timers of every channel (the node departed)."""
        for channel in self._channels:
            channel.cancel_timers()

    def find_channel(self, name: str) -> Optional["Channel"]:
        """Return the registered channel called ``name``, if any."""
        for channel in self._channels:
            if channel.name == name:
                return channel
        return None

    # -- dispatch --------------------------------------------------------------

    def enqueue(self, event: Event) -> None:
        """Queue ``event`` for dispatch and run to completion if idle.

        Re-entrant insertions (a handler forwarding or creating events) only
        append; the already-active dispatch loop drains them.
        """
        self._queue.append(event)
        if not self._dispatching:
            self._run()

    def _run(self) -> None:
        self._dispatching = True
        queue = self._queue
        try:
            while queue:
                event = queue.popleft()
                if event.channel is None:  # pragma: no cover - defensive
                    continue
                route = event._route
                index = event._index
                if 0 <= index < len(route):
                    event._armed = True
                    # Looked up per dispatch, never cached: a ``handle``
                    # replaced on the class (a tracer) takes effect here.
                    route[index].handle(event)
                self.dispatched_count += 1
                if isinstance(event, TimerEvent):
                    self.timer_dispatched_count += 1
        finally:
            self._dispatching = False

    @property
    def idle(self) -> bool:
        """True when no events are pending."""
        return not self._queue
