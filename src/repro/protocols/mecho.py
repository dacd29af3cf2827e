"""Mecho (Multicast Echo) — the paper's adaptive best-effort multicast (§3.4).

In hybrid scenarios (mobile devices in range of a base station plus hosts on
the fixed infrastructure) Mecho replaces the plain best-effort multicast:

* a **wireless** (mobile) node sends a *single* point-to-point message to a
  selected **fixed relay**, which *"in turn, is responsible for relaying the
  message to the remaining participants"*;
* a **wired** node multicasts directly (sequence of point-to-point, like the
  baseline) and, when it is the relay, forwards mobile traffic on their
  behalf.

The mobile node's transmission count per group send therefore drops from
``n-1`` to ``1`` — the effect measured in Figure 3 — at the expense of an
increase on the fixed node (the paper: *"naturally, at the expense of an
increase in the number of messages of the fixed node"*).

Wire format: every Mecho transmission pushes a ``("mecho", kind, origin)``
header.  ``kind`` is ``direct`` (deliver), ``fwd`` (relay request) or
``relayed`` (already forwarded — deliver, do not re-forward).
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.damping import FlapDamper
from repro.kernel.events import (Direction, Event, SendableEvent,
                                 TimerEvent)
from repro.kernel.layer import Layer
from repro.kernel.packet import EachOf
from repro.kernel.registry import register_layer
from repro.kernel.transport import DatagramTransportSession
from repro.protocols.base import GroupSession
from repro.protocols.events import (GroupSendableEvent, PathChangedEvent,
                                    SuspectEvent, UnsuspectEvent, ViewEvent)

_RELAY_PROBE_TIMER = "mecho-relay-probe"

_HEADER_TAG = "mecho"
DIRECT = "direct"
FORWARD_REQUEST = "fwd"
RELAYED = "relayed"

MODE_WIRED = "wired"
MODE_WIRELESS = "wireless"

#: Relay trust flips per damping window before PathChanged is damped.
_PATH_FLAP_LIMIT = 4
#: The damping window and cooldown, in multiples of ``relay_timeout``.
_PATH_FLAP_SPAN = 8.0


class MechoSession(GroupSession):
    """Mecho state: operating mode and the selected relay."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        mode = layer.params.get("mode", MODE_WIRED)
        if mode not in (MODE_WIRED, MODE_WIRELESS):
            raise ValueError(f"invalid mecho mode {mode!r}")
        self.mode: str = mode
        self.relay: Optional[str] = layer.params.get("relay") or None
        #: Members the failure detector suspects.
        self.suspected: set[str] = set()
        #: Relay probe, on a shorter fuse than the detector: the relay is
        #: silent after ``relay_timeout`` without evidence of it in the node
        #: service, until heard again.  A wireless node fans out directly
        #: while its relay is silent or suspected (a dead relay would
        #: silence the view change that repairs it); routing only.
        self.relay_silent = False
        self.relay_timeout: float = float(
            layer.params.get("relay_timeout", 4.0))
        # A relay oscillating between trusted and suspected under bursty
        # loss emits a PathChangedEvent per transition, each one inviting
        # the detector above to restart its observation windows.  Damp the
        # *signal* when the trust state flips too often — the fall-back
        # itself is never suppressed (a dead relay must always be routed
        # around), only the window-reset notification upward.
        span = _PATH_FLAP_SPAN * self.relay_timeout
        self._path_damper = FlapDamper(limit=_PATH_FLAP_LIMIT, window=span,
                                       cooldown=span)
        self._service: Optional[DatagramTransportSession] = None
        #: Foreign-framed packets dropped (generation skew diagnostics).
        self.foreign_dropped = 0

    # -- helpers ---------------------------------------------------------------

    def _push_header(self, event: SendableEvent, kind: str,
                     origin: str) -> None:
        event.message.push_header((_HEADER_TAG, kind, origin))

    def _fan_out(self, event: GroupSendableEvent, kind: str, origin: str,
                 members: tuple[str, ...], channel) -> None:
        """A point-to-point copy of ``event`` for each of ``members``: one
        framed event addressed to ``EachOf(members)``, header pushed once,
        the network makes the per-member packets."""
        if not members:
            return
        framed = event.clone()
        framed.source = origin
        framed.dest = EachOf(members)
        self._push_header(framed, kind, origin)
        self.send_down(framed, channel=channel)

    def _relay_trusted(self) -> bool:
        return not self.relay_silent and self.relay not in self.suspected

    def _trust_changed(self, channel, was: bool) -> None:
        """Signal a flip of a wireless node's trust in its relay upward,
        flap-damped: falling back to direct fan-out, the detector above
        restarts its windows, since the relayed traffic died."""
        trusted = self._relay_trusted()
        if self.mode == MODE_WIRELESS and trusted != was and \
                not self._path_damper.observe(trusted,
                                              channel.kernel.clock.now()):
            self.send_up(PathChangedEvent(), channel=channel)

    # -- event handling ----------------------------------------------------------

    def on_channel_init(self, event: Event) -> None:
        self._service = DatagramTransportSession.of(event.channel)
        if self.mode == MODE_WIRELESS and self.relay and \
                self.relay != self.local:
            self.set_timer(self.relay_timeout, tag=_RELAY_PROBE_TIMER,
                           channel=event.channel)

    def _probe_relay(self, channel) -> None:
        """One-shot at the silence deadline: one timer event per deadline."""
        # Never heard since the probe was armed: silent all along.
        silence = channel.kernel.clock.now() - \
            self._service.last_heard(self.relay)
        was = self._relay_trusted()
        self.relay_silent = silence > self.relay_timeout
        self._trust_changed(channel, was)
        self.set_timer(self.relay_timeout if self.relay_silent else
                       self.relay_timeout - silence + 1e-9,
                       tag=_RELAY_PROBE_TIMER, channel=channel)

    def on_event(self, event: Event) -> None:
        if isinstance(event, TimerEvent):
            if event.tag == _RELAY_PROBE_TIMER:
                self._probe_relay(event.channel)
            return
        if isinstance(event, (SuspectEvent, UnsuspectEvent)):
            was = self._relay_trusted()
            (self.suspected.add if isinstance(event, SuspectEvent)
             else self.suspected.discard)(event.member)
            self._trust_changed(event.channel, was)
            return  # travelling down; the stack ends below us
        if not isinstance(event, GroupSendableEvent):
            event.go()
            return
        if event.direction is Direction.DOWN:
            self._outgoing(event)
        else:
            self._incoming(event)

    # -- outgoing -------------------------------------------------------------------

    def _outgoing(self, event: GroupSendableEvent) -> None:
        assert self.local is not None, "mecho used before ChannelInit"
        channel = event.channel
        if not self.is_group_dest(event):
            if event.dest == self.local:
                # Self-addressed point-to-point: short-circuit locally.
                loopback = event.clone()
                loopback.source = self.local
                self.send_up(loopback, channel=channel)
                return
            # Point-to-point traffic (NACKs, retransmissions, flush acks)
            # crosses Mecho unchanged apart from the framing header.
            wire = event.clone()
            wire.source = event.source if event.source is not None else self.local
            self._push_header(wire, DIRECT, wire.source)
            self.send_down(wire, channel=channel)
            return
        if self.mode == MODE_WIRELESS and self.relay and \
                self.relay != self.local and self._relay_trusted():
            # The whole point: ONE transmission, addressed to the relay.
            wire = event.clone()
            wire.source = self.local
            wire.dest = self.relay
            self._push_header(wire, FORWARD_REQUEST, self.local)
            self.send_down(wire, channel=channel)
        else:
            # Wired mode (or a degenerate wireless config with no relay):
            # fan out directly, like the baseline.
            self._fan_out(event, DIRECT, self.local, self.others(), channel)
        loopback = event.clone()
        loopback.source = self.local
        loopback.dest = self.local
        self.send_up(loopback, channel=channel)

    # -- incoming --------------------------------------------------------------------

    def _incoming(self, event: GroupSendableEvent) -> None:
        if event.message.header_depth == 0:
            self.foreign_dropped += 1  # headerless frame: not from mecho
            return
        header = event.message.pop_header()
        if not (isinstance(header, tuple) and len(header) == 3 and
                header[0] == _HEADER_TAG):
            # Frame from a differently-composed stack on the same port
            # (generation skew during reconfiguration): drop, the reliable
            # layer's retransmission recovers the content.
            self.foreign_dropped += 1
            return
        _tag, kind, origin = header
        if kind == FORWARD_REQUEST:
            self._relay_on_behalf_of(event, origin)
        event.source = origin
        event.go()

    def _relay_on_behalf_of(self, event: GroupSendableEvent,
                            origin: str) -> None:
        """Forward a mobile node's message to the remaining participants."""
        assert self.local is not None
        # A stale relay selection can address a non-relay node: honour the
        # forward request anyway (and deliver locally, best-effort) so the
        # group still converges.
        self._fan_out(event, RELAYED, origin,
                      tuple(member for member in self.members
                            if member != origin and member != self.local),
                      event.channel)


@register_layer
class MechoLayer(Layer):
    """Adaptive best-effort multicast with fixed-relay forwarding.

    Parameters: ``mode`` (``wired`` | ``wireless``), ``relay`` (node id of
    the selected fixed relay), ``members`` (bootstrap CSV), ``group``,
    ``relay_timeout`` (relay silence threshold, seconds; relay trust-flap
    PathChanged signals are damped over ``8 × relay_timeout``).
    """

    layer_name = "mecho"
    accepted_events = (SendableEvent, ViewEvent, SuspectEvent,
                       UnsuspectEvent, TimerEvent)
    provided_events = (GroupSendableEvent, PathChangedEvent)
    session_class = MechoSession
