"""Sessions: the stateful, per-channel half of a micro-protocol.

For each layer of a channel's QoS there is one session holding the state the
protocol needs (paper §3.1).  Two channels that share a layer *may* share the
session, in which case the protocol correlates events across channels — the
canonical example in the paper is a causal-order session shared by two
channels so their messages are ordered among each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.kernel.errors import EventRoutingError
from repro.kernel.events import (BackoffTimerEvent, Direction, Event,
                                 PeriodicTimerEvent, TimerEvent)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.channel import Channel, TimerHandle
    from repro.kernel.layer import Layer


class Session:
    """Base class for protocol sessions.

    A session may be bound to several channels at once (session sharing);
    :attr:`channels` lists the live bindings.  Helper methods that inject
    events take an optional ``channel`` argument and default to the single
    bound channel — passing the channel explicitly is mandatory for shared
    sessions, which keeps sharing misuse detectable.
    """

    def __init__(self, layer: "Layer") -> None:
        self.layer = layer
        self.channels: list["Channel"] = []

    # -- binding -----------------------------------------------------------

    def _bound(self, channel: "Channel") -> None:
        if channel not in self.channels:
            self.channels.append(channel)

    def _unbound(self, channel: "Channel") -> None:
        if channel in self.channels:
            self.channels.remove(channel)

    @property
    def channel(self) -> "Channel":
        """The unique bound channel.

        Raises:
            EventRoutingError: when the session is bound to zero or several
                channels, in which case the caller must name the channel.
        """
        if len(self.channels) != 1:
            raise EventRoutingError(
                f"session {self!r} is bound to {len(self.channels)} channels; "
                "pass the channel explicitly")
        return self.channels[0]

    # -- event handling ----------------------------------------------------

    def handle(self, event: Event) -> None:
        """Process ``event``.

        The default implementation forwards every event unchanged, so layers
        only intercept what they care about.  Overrides must either call
        :meth:`Event.go` (possibly later) or deliberately consume the event.
        """
        event.go()

    # -- event injection ---------------------------------------------------

    def send_up(self, event: Event, channel: Optional["Channel"] = None) -> None:
        """Inject ``event`` travelling up, starting above this session."""
        (channel or self.channel).insert_from(self, event, Direction.UP)

    def send_down(self, event: Event, channel: Optional["Channel"] = None) -> None:
        """Inject ``event`` travelling down, starting below this session."""
        (channel or self.channel).insert_from(self, event, Direction.DOWN)

    # -- timers --------------------------------------------------------------

    def set_timer(self, delay: float, event: Optional[TimerEvent] = None,
                  tag: Any = None,
                  channel: Optional["Channel"] = None) -> "TimerHandle":
        """Arm a one-shot timer delivering ``event`` to this session.

        Args:
            delay: virtual seconds until the timer fires.
            event: the timer event to deliver; a plain :class:`TimerEvent`
                carrying ``tag`` is created when omitted.
            tag: convenience tag for the auto-created event.
            channel: channel context for shared sessions.
        """
        if event is None:
            event = TimerEvent(tag)
        return (channel or self.channel).set_timer(delay, event, self)

    def set_periodic_timer(self, interval: float,
                           event: Optional[PeriodicTimerEvent] = None,
                           tag: Any = None,
                           channel: Optional["Channel"] = None) -> "TimerHandle":
        """Arm a periodic timer firing every ``interval`` until cancelled."""
        if event is None:
            event = PeriodicTimerEvent(tag, interval)
        return (channel or self.channel).set_timer(interval, event, self)

    def set_backoff_timer(self, interval: float, tag: Any = None,
                          max_interval: Optional[float] = None,
                          factor: float = 2.0,
                          channel: Optional["Channel"] = None) -> "TimerHandle":
        """Arm a rearm-on-fire one-shot whose interval stretches by
        ``factor`` (capped at ``max_interval``) after every fire.

        The timer event's ``attempt`` counts completed fires.  With
        ``factor=1.0`` this is a constant-interval rearm-on-fire one-shot
        — the event-driven replacement for periodic ticks whose handler
        decides per fire whether the loop should continue (cancel the
        returned handle to stop it).
        """
        event = BackoffTimerEvent(tag, interval, max_interval=max_interval,
                                  factor=factor)
        return (channel or self.channel).set_timer(interval, event, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} of {self.layer.name()}>"
