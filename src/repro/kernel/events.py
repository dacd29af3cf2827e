"""Typed events exchanged between protocol layers.

Events are the only interaction mechanism between layers (paper §3.1): each
layer declares which event types it accepts and which it provides, and the
kernel computes, per event type, the optimized route through the stack — a
session that did not declare interest in a type is never visited by events
of that type.

The lifecycle of an event mirrors Appia's:

1. a session creates the event and injects it with
   :meth:`~repro.kernel.session.Session.send_up` /
   :meth:`~repro.kernel.session.Session.send_down` (or the channel inserts
   it at an endpoint, e.g. a packet arriving from the network);
2. the channel computes the event's route and enqueues it;
3. each session on the route receives :meth:`handle(event)
   <repro.kernel.session.Session.handle>` and *explicitly* calls
   :meth:`Event.go` to forward the event to the next hop — not calling
   ``go`` consumes the event.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.kernel.errors import EventRoutingError
from repro.kernel.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.kernel.channel import Channel
    from repro.kernel.session import Session

_event_sequence = itertools.count()


class Direction(enum.Enum):
    """Direction of travel of an event through the stack."""

    UP = "up"
    DOWN = "down"

    def invert(self) -> "Direction":
        """Return the opposite direction."""
        return Direction.DOWN if self is Direction.UP else Direction.UP


class Event:
    """Base class of every kernel event.

    Attributes:
        channel: the channel the event is travelling through (set on insert).
        direction: :class:`Direction` of travel (set on insert).
        source_session: the session that injected the event, or ``None`` for
            endpoint insertions (network arrivals, channel lifecycle).
    """

    # Routing state.  Class-level defaults describe an event nobody has
    # inserted yet; the channel sets all six when it binds the event to a
    # route (``Channel.insert_from``, a timer firing), so ``__init__``
    # does not write them first.
    channel: Optional["Channel"] = None
    direction: Optional[Direction] = None
    source_session: Optional["Session"] = None
    _route: Sequence["Session"] = ()
    _index: int = 0
    _armed: bool = False  # True while parked at a session, pre-go()

    def __init__(self) -> None:
        self._seq = next(_event_sequence)

    # -- public API --------------------------------------------------------

    def go(self) -> None:
        """Forward this event to the next session on its route.

        Must be called at most once per hop; a second call for the same hop
        raises :class:`~repro.kernel.errors.EventRoutingError`.  The call may
        be deferred (e.g. a layer may hold an event and release it from a
        timer handler), which is how blocking layers implement quiescence.

        A hop is one queue append: the event advances its own index and
        hands itself to :meth:`Kernel.enqueue
        <repro.kernel.scheduler.Kernel.enqueue>`, whose run loop calls the
        next session's ``handle``.
        """
        if not self._armed:
            if self.channel is None:
                raise EventRoutingError(
                    "event was never inserted into a channel")
            raise EventRoutingError(
                f"go() called twice (or before delivery) for {self!r}")
        self._armed = False
        index = self._index = self._index + 1
        channel = self.channel
        if index < len(self._route):
            channel.kernel.enqueue(self)
        else:
            channel._end_of_route(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        direction = self.direction.value if self.direction else "?"
        return f"<{type(self).__name__} #{self._seq} {direction}>"


class ChannelEvent(Event):
    """Base for channel lifecycle events, implicitly accepted by all layers."""


class ChannelInit(ChannelEvent):
    """First event of a channel; travels bottom → top when the channel starts.

    Sessions initialise their per-channel state when they see this event.
    """


class ChannelClose(ChannelEvent):
    """Last event of a channel; travels top → bottom when the channel closes."""


class SendableEvent(Event):
    """An event that can cross the network.

    Carries a :class:`~repro.kernel.message.Message` plus source/destination
    addresses.  Addresses are opaque to the kernel; the simulator uses node
    identifiers.  ``dest`` may be a single address, a tuple of addresses or a
    group identifier, depending on the layer that interprets it.

    Subclasses that represent protocol-internal traffic set
    ``traffic_class = "control"`` so experiment counters can separate data
    from control messages (the paper's Figure 3 counts both; footnote 1
    breaks the adaptive version's overhead down).

    Wire contract: subclasses must keep the ``(message, source, dest)``
    constructor signature — the simulated transport reconstructs events on
    delivery by calling ``type(event)(message=..., source=..., dest=...)``.
    Protocol state travels in message headers, never in extra constructor
    arguments.
    """

    #: Experiment accounting tag: ``"data"`` or ``"control"``.
    traffic_class = "data"

    def __init__(self, message: Optional[Message] = None,
                 source: Any = None, dest: Any = None) -> None:
        super().__init__()
        self.message: Message = message if message is not None else Message()
        self.source = source
        self.dest = dest

    def clone(self) -> "SendableEvent":
        """Return an unbound copy with an O(1) copy-on-write message handle.

        Used by fan-out layers (best-effort multicast, Mecho relaying) to
        emit one wire message per destination: the clones share the header
        chain structurally, so N-way fan-out costs N handles, not N deep
        copies (see :mod:`repro.kernel.message` for the ownership contract).
        """
        dup = type(self)(message=self.message.copy(),
                         source=self.source, dest=self.dest)
        return dup


class EchoEvent(Event):
    """Bounces at the end of its route, then delivers its payload event back.

    When an ``EchoEvent`` falls off the end of the stack the channel re-inserts
    the wrapped event travelling in the opposite direction from that endpoint.
    Layers use this to probe the composition below/above them.
    """

    def __init__(self, wrapped: Event) -> None:
        super().__init__()
        self.wrapped = wrapped


class TimerEvent(Event):
    """Delivered to the session that armed the timer when its delay elapses.

    Timer events do not travel the stack: their route contains only the
    requesting session.
    """

    def __init__(self, tag: Any = None) -> None:
        super().__init__()
        self.tag = tag
        #: Virtual time at which the timer fired (set by the channel).
        self.fired_at: float = 0.0


class PeriodicTimerEvent(TimerEvent):
    """A timer event re-armed automatically every ``interval`` until cancelled."""

    def __init__(self, tag: Any = None, interval: float = 1.0) -> None:
        super().__init__(tag)
        self.interval = interval


class BackoffTimerEvent(TimerEvent):
    """A one-shot that re-arms itself on fire, stretching its interval.

    The first fire happens ``interval`` seconds after arming; each re-arm
    multiplies the interval by ``factor``, capped at ``max_interval``.
    With ``factor=1.0`` this degenerates to a plain rearm-on-fire one-shot
    (a periodic timer expressed as consecutive one-shots).

    This is the kernel primitive behind retry/probe loops: instead of a
    forever-armed periodic tick that counts down in protocol state (two
    scheduler events per second per node for the lifetime of the channel),
    the timer itself fires exactly once per attempt — a permanently dead
    peer costs one timer event per probe, however far apart the probes
    back off.  Cancel the handle returned by
    :meth:`~repro.kernel.session.Session.set_backoff_timer` to stop the
    loop; ``attempt`` counts completed fires for the consuming session.
    """

    def __init__(self, tag: Any = None, interval: float = 1.0,
                 max_interval: Optional[float] = None,
                 factor: float = 2.0) -> None:
        super().__init__(tag)
        if interval <= 0:
            raise ValueError(f"non-positive interval: {interval}")
        if factor < 1.0:
            raise ValueError(f"shrinking backoff factor: {factor}")
        if max_interval is not None and max_interval <= 0:
            # A zero cap would re-arm at the same virtual instant forever
            # (a livelock); reject it here rather than hang mid-run.
            raise ValueError(f"non-positive max_interval: {max_interval}")
        self.interval = interval
        self.max_interval = max_interval
        self.factor = factor
        #: Completed fires (0 while waiting for the first).
        self.attempt = 0

    def advance(self) -> float:
        """Account one fire and return the next interval (kernel-internal)."""
        self.attempt += 1
        interval = self.interval * self.factor
        if self.max_interval is not None:
            interval = min(interval, self.max_interval)
        self.interval = interval
        return interval


class DebugEvent(ChannelEvent):
    """Traverses the full stack collecting a description of each session.

    Like all :class:`ChannelEvent` subclasses it is implicitly accepted by
    every layer, so it always sees the complete composition.
    """

    def __init__(self) -> None:
        super().__init__()
        self.lines: list[str] = []
