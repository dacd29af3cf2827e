"""Channels: live instances of a QoS with one session per layer.

A channel routes typed events through its session stack.  Route optimization
follows the paper (§3.1): using the layers' ``accepted_events`` declarations
the kernel computes, per event type and direction, the exact sequence of
sessions an event visits — uninterested layers are skipped entirely.  A
route is resolved the first time a session injects an event type in a
direction and remembered until the channel closes, so an injection is one
table probe and a hop is one queue append and one ``handle`` call.

Lifecycle::

    CREATED --start()--> STARTED --close()--> CLOSED

``start()`` injects a :class:`~repro.kernel.events.ChannelInit` travelling
bottom → top; ``close()`` injects a
:class:`~repro.kernel.events.ChannelClose` travelling top → bottom, after
which the channel cancels its timers and unbinds its sessions.  The Core
reconfigurator relies on this lifecycle to tear a stack down and rebuild it
from an XML description while preserving chosen sessions.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.kernel.errors import ChannelStateError, EventRoutingError
from repro.kernel.events import (BackoffTimerEvent, ChannelClose,
                                 ChannelEvent, ChannelInit, Direction,
                                 EchoEvent, Event, PeriodicTimerEvent,
                                 TimerEvent)
from repro.kernel.layer import Layer
from repro.kernel.qos import QoS
from repro.kernel.scheduler import Kernel
from repro.kernel.session import Session


_RouteTable = dict[tuple[Optional[Session], type], list[Session]]


class ChannelState(enum.Enum):
    """Channel lifecycle states."""

    CREATED = "created"
    STARTED = "started"
    CLOSING = "closing"
    CLOSED = "closed"


class TimerHandle:
    """Cancellation handle for a timer armed through a channel.

    The clock holds the handle's bound :meth:`_fire` while the timer is
    pending, and the handle drops its clock entry when it fires or is
    cancelled, so the two form no cycle: a fired one-shot that nobody
    holds is freed by reference counting, not left for the cyclic
    collector.
    """

    __slots__ = ("_channel", "_clock_handle", "_route", "cancelled", "event",
                 "__weakref__")

    def __init__(self, channel: "Channel", event: TimerEvent,
                 session: Session) -> None:
        self._channel = channel
        self._clock_handle: Any = None
        self._route = [session]
        self.cancelled = False
        #: The armed timer event (introspection: a backoff timer's current
        #: ``interval``/``attempt`` live on the event between fires).
        self.event = event

    def cancel(self) -> None:
        """Cancel the timer; periodic timers stop re-arming."""
        self.cancelled = True
        if self._clock_handle is not None:
            self._clock_handle.cancel()
            self._clock_handle = None
        self._channel._live_timers.discard(self)

    def _arm(self, delay: float) -> None:
        channel = self._channel
        self._clock_handle = channel.kernel.clock.call_later(delay,
                                                             self._fire)
        channel._live_timers.add(self)

    def _fire(self) -> None:
        channel = self._channel
        self._clock_handle = None
        channel._live_timers.discard(self)
        if self.cancelled or channel.state is ChannelState.CLOSED:
            return
        event = self.event
        event.fired_at = channel.kernel.clock.now()
        event.channel = channel
        event.direction = Direction.UP
        event.source_session = None
        event._route = self._route
        event._index = 0
        event._armed = False
        channel.kernel.enqueue(event)
        if self.cancelled:
            # The dispatched handler cancelled its own timer.
            return
        if isinstance(event, PeriodicTimerEvent):
            rearm_after: Optional[float] = event.interval
        elif isinstance(event, BackoffTimerEvent):
            rearm_after = event.advance()
        else:
            rearm_after = None
        if rearm_after is not None:
            self._arm(rearm_after)


class Channel:
    """A live protocol stack built from a :class:`~repro.kernel.qos.QoS`.

    Args:
        name: channel name; also used by XML descriptions and Core configs.
        qos: the validated composition to instantiate.
        kernel: hosting kernel (per node).
        preset_sessions: layer index → session to reuse instead of creating a
            fresh one (session sharing / reconfiguration preservation).
    """

    def __init__(self, name: str, qos: QoS, kernel: Kernel,
                 preset_sessions: Optional[dict[int, Session]] = None) -> None:
        self.name = name
        self.qos = qos
        self.kernel = kernel
        self.state = ChannelState.CREATED
        #: Node address of this channel's endpoint; stamped by the transport
        #: layer during ChannelInit so upper layers can learn "who am I".
        self.local_address: Optional[str] = None
        preset_sessions = preset_sessions or {}
        self.sessions: list[Session] = []
        for index, layer in enumerate(qos.layers):
            session = preset_sessions.get(index) or layer.create_session()
            self.sessions.append(session)
        #: ``(injecting session, event type) -> route``, one table per
        #: direction; an endpoint insertion has no session (``None``).
        #: Empty unless the channel is live — filled on a miss, which
        #: checks the state, and released at close — so a hit needs no
        #: state check.
        self._routes_up: _RouteTable = {}
        self._routes_down: _RouteTable = {}
        self._live_timers: set[TimerHandle] = set()
        kernel._register_channel(self)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind sessions and send :class:`ChannelInit` bottom → top."""
        if self.state is not ChannelState.CREATED:
            raise ChannelStateError(
                f"channel {self.name!r} cannot start from {self.state}")
        for session in self.sessions:
            session._bound(self)
        self.state = ChannelState.STARTED
        self.insert(ChannelInit(), Direction.UP)

    def close(self) -> None:
        """Send :class:`ChannelClose` top → bottom, then release resources."""
        if self.state is not ChannelState.STARTED:
            raise ChannelStateError(
                f"channel {self.name!r} cannot close from {self.state}")
        self.state = ChannelState.CLOSING
        self.insert(ChannelClose(), Direction.DOWN)

    def _finalize_close(self) -> None:
        self.cancel_timers()
        for session in self.sessions:
            session._unbound(self)
        self.state = ChannelState.CLOSED
        # Release the stack: a session that still holds one of this
        # channel's timer handles would otherwise form a cycle with it,
        # and wait for the cyclic collector with every session it reaches.
        self.sessions = []
        self._routes_up.clear()
        self._routes_down.clear()
        self.kernel._unregister_channel(self)

    # -- introspection ---------------------------------------------------------

    def layer_names(self) -> list[str]:
        """Registry names of the live stack, bottom → top."""
        return self.qos.layer_names()

    def session_of(self, layer_type: type[Layer]) -> Optional[Session]:
        """Return the session of the first layer matching ``layer_type``."""
        for layer, session in zip(self.qos.layers, self.sessions):
            if isinstance(layer, layer_type):
                return session
        return None

    def session_named(self, layer_name: str) -> Optional[Session]:
        """Return the session whose layer has registry name ``layer_name``."""
        for layer, session in zip(self.qos.layers, self.sessions):
            if layer.name() == layer_name:
                return session
        return None

    def index_of(self, session: Session) -> int:
        """Stack index of ``session`` (bottom = 0)."""
        try:
            return self.sessions.index(session)
        except ValueError:
            raise EventRoutingError(
                f"{session!r} is not part of channel {self.name!r}") from None

    # -- routing ---------------------------------------------------------------

    def _route_for(self, event: Event, direction: Direction,
                   start: int) -> list[Session]:
        """Sessions ``event`` visits, starting at stack index ``start``.

        ``start`` is inclusive.  For UP events the route walks indices
        ``start, start+1, ...``; for DOWN events ``start, start-1, ...``
        (so a start beyond either end of the stack is an empty route).
        The only place a route is computed.
        """
        implicit = isinstance(event, ChannelEvent)
        layers = self.qos.layers
        indices = range(start, len(layers)) if direction is Direction.UP \
            else range(start, -1, -1)
        return [self.sessions[index] for index in indices
                if implicit or layers[index].accepts(event)]

    def _resolve_route(self, session: Optional[Session], event: Event,
                       direction: Direction) -> list[Session]:
        """First use of ``(session, event type)`` in ``direction``: check
        that the channel routes and the session is in it, compute the
        route and remember it."""
        self._check_live()
        going_up = direction is Direction.UP
        if session is None:
            start = 0 if going_up else len(self.sessions) - 1
        else:
            start = self.index_of(session) + (1 if going_up else -1)
        route = self._route_for(event, direction, start)
        routes = self._routes_up if going_up else self._routes_down
        routes[session, type(event)] = route
        return route

    def _check_live(self) -> None:
        if self.state not in (ChannelState.STARTED, ChannelState.CLOSING):
            raise ChannelStateError(
                f"channel {self.name!r} is {self.state.value}; cannot route")

    # -- insertion ----------------------------------------------------------------

    def insert(self, event: Event, direction: Direction) -> None:
        """Insert ``event`` at a channel endpoint.

        UP events enter below the bottom layer (e.g. a packet arriving from
        the network); DOWN events enter above the top layer.
        """
        self.insert_from(None, event, direction)

    def insert_from(self, session: Optional[Session], event: Event,
                    direction: Direction) -> None:
        """Insert ``event`` travelling from ``session``'s stack position
        (``None``: from the endpoint the direction starts at)."""
        routes = self._routes_up if direction is Direction.UP \
            else self._routes_down
        route = routes.get((session, type(event)))
        if route is None:
            route = self._resolve_route(session, event, direction)
        event.channel = self
        event.direction = direction
        event.source_session = session
        event._route = route
        event._index = 0
        event._armed = False
        if route:
            self.kernel.enqueue(event)
        else:
            self._end_of_route(event)

    def _end_of_route(self, event: Event) -> None:
        """``event`` ran off its route: an echo bounces, a close finalises."""
        if isinstance(event, EchoEvent) and event.direction is not None:
            self.insert(event.wrapped, event.direction.invert())
        elif isinstance(event, ChannelClose):
            self._finalize_close()

    # -- timers ---------------------------------------------------------------------

    def set_timer(self, delay: float, event: TimerEvent,
                  session: Session) -> TimerHandle:
        """Arm ``event`` for delivery to ``session`` after ``delay`` seconds.

        Periodic timer events re-arm automatically with their ``interval``
        until cancelled or until the channel closes; backoff timer events
        re-arm with their next (stretched) interval.  The re-arm happens
        at fire time — between fires exactly one clock entry exists, so a
        backoff loop costs one scheduler event per attempt.
        """
        self._check_live()
        handle = TimerHandle(self, event, session)
        handle._arm(delay)
        return handle

    def cancel_timers(self) -> None:
        """Cancel every live timer armed through this channel."""
        for handle in list(self._live_timers):
            handle.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Channel {self.name} ({self.state.value}) "
                f"[{' / '.join(self.layer_names())}]>")
