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


class MechoSession(GroupSession):
    """Mecho state: operating mode and the selected relay."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        mode = layer.params.get("mode", MODE_WIRED)
        if mode not in (MODE_WIRED, MODE_WIRELESS):
            raise ValueError(f"invalid mecho mode {mode!r}")
        self.mode: str = mode
        self.relay: Optional[str] = layer.params.get("relay") or None
        #: Members the failure detector currently suspects.  When the relay
        #: itself is suspected, wireless nodes fall back to direct fan-out —
        #: otherwise the group (including the view change that would repair
        #: it) would be silenced by the dead relay.
        self.suspected: set[str] = set()
        #: Relay liveness probe.  The generic heartbeat detector above
        #: cannot identify the critical-path node — right up to its death
        #: the relay is the *freshest*-heard member, because everyone's
        #: traffic arrives through it.  The layer that owns the relay
        #: dependency therefore monitors it directly: every frame
        #: transmitted by the relay refreshes this timestamp, and
        #: ``relay_timeout`` of relay silence triggers the fall-back (and
        #: an upward suspicion) before the heartbeat detector starts
        #: suspecting innocent peers whose beacons died with the relay.
        self.relay_timeout: float = float(
            layer.params.get("relay_timeout", 4.0))
        # A relay oscillating between trusted and suspected under bursty
        # loss emits a PathChangedEvent per transition, each one inviting
        # the detector above to restart its observation windows.  Damp the
        # *signal* when the trust state flips too often — the fall-back
        # itself is never suppressed (a dead relay must always be routed
        # around), only the window-reset notification upward.
        self._path_damper = FlapDamper(
            limit=int(layer.params.get("path_flap_limit", 4)),
            window=float(layer.params.get("path_flap_window",
                                          8.0 * self.relay_timeout)),
            cooldown=float(layer.params.get("path_flap_cooldown",
                                            8.0 * self.relay_timeout)))
        self._relay_heard = 0.0
        self._probe_handle = None
        #: Foreign-framed packets dropped (generation skew diagnostics).
        self.foreign_dropped = 0

    # -- helpers ---------------------------------------------------------------

    @property
    def is_relay(self) -> bool:
        return self.local is not None and self.local == self.relay

    def _push_header(self, event: SendableEvent, kind: str,
                     origin: str) -> None:
        event.message.push_header((_HEADER_TAG, kind, origin))

    def _fan_out(self, event: GroupSendableEvent, kind: str, origin: str,
                 members: tuple[str, ...], channel) -> None:
        """A point-to-point copy of ``event`` for each of ``members``, sent
        as one framed event addressed to ``EachOf(members)``: the header
        cell is pushed (encoded, charged) once and the network makes the
        per-member packets."""
        if not members:
            return
        framed = event.clone()
        framed.source = origin
        framed.dest = EachOf(members)
        self._push_header(framed, kind, origin)
        self.send_down(framed, channel=channel)

    def _path_changed(self, channel, trusted: bool) -> None:
        """Signal a dissemination-path change upward, flap-damped."""
        if not self._path_damper.observe(trusted,
                                         channel.kernel.clock.now()):
            self.send_up(PathChangedEvent(), channel=channel)

    # -- event handling ----------------------------------------------------------

    def on_channel_init(self, event: Event) -> None:
        if self.mode == MODE_WIRELESS and self.relay and \
                self.relay != self.local:
            self._relay_heard = event.channel.kernel.clock.now()
            self._arm_probe(event.channel)

    def _arm_probe(self, channel, delay: Optional[float] = None) -> None:
        """Schedule the silence check as a one-shot at the deadline.

        The seed revision ticked every ``relay_timeout/4`` for the
        channel's lifetime; scheduling straight at ``_relay_heard +
        relay_timeout`` (and re-arming at the *remaining* silence when
        relayed traffic moved the deadline) costs ~1 timer event per
        timeout window instead of 4, and stops entirely once the relay is
        suspected — the check re-arms when an ``UnsuspectEvent`` clears
        the relay.
        """
        if self._probe_handle is not None:
            self._probe_handle.cancel()
        self._probe_handle = self.set_timer(
            delay if delay is not None else self.relay_timeout,
            tag=_RELAY_PROBE_TIMER, channel=channel)

    def _probe_relay(self, channel) -> None:
        self._probe_handle = None
        if self.relay is None or self.relay in self.suspected or \
                self.mode != MODE_WIRELESS or self.relay == self.local:
            return  # dormant until the relay is (re-)trusted
        now = channel.kernel.clock.now()
        silence = now - self._relay_heard
        if silence > self.relay_timeout:
            self.suspected.add(self.relay)
            self._path_changed(channel, trusted=False)
            self.send_up(SuspectEvent(self.relay), channel=channel)
            return  # fall-back engaged; no further checks needed
        # Relayed traffic moved the deadline: sleep out the remainder.
        self._arm_probe(channel, self.relay_timeout - silence + 1e-9)

    def on_event(self, event: Event) -> None:
        if isinstance(event, TimerEvent):
            if event.tag == _RELAY_PROBE_TIMER:
                self._probe_relay(event.channel)
            return
        if isinstance(event, SuspectEvent):
            newly = event.member not in self.suspected
            self.suspected.add(event.member)
            if newly and self.mode == MODE_WIRELESS and \
                    event.member == self.relay:
                # Falling back to direct fan-out.  Everything — including
                # everyone's heartbeats — was routed through the dead
                # relay, so the detector above must restart its window or
                # it would wrongly suspect every other member next.
                self._path_changed(event.channel, trusted=False)
            return  # travelling down; the stack ends below us
        if isinstance(event, UnsuspectEvent):
            if event.member in self.suspected and \
                    self.mode == MODE_WIRELESS and event.member == self.relay:
                self._relay_heard = event.channel.kernel.clock.now()
                self._path_changed(event.channel, trusted=True)
                self._arm_probe(event.channel)  # relay trusted again
            self.suspected.discard(event.member)
            return
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
                self.relay != self.local and self.relay not in self.suspected:
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
        channel = event.channel
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
        if kind == RELAYED or origin == self.relay:
            # Proof of relay liveness: it transmitted this frame.
            self._relay_heard = channel.kernel.clock.now()
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
    ``relay_timeout`` (relay silence threshold, seconds),
    ``path_flap_limit`` / ``path_flap_window`` / ``path_flap_cooldown``
    (damping of relay trust-flap PathChanged signals; window and cooldown
    default to ``8 × relay_timeout``).
    """

    layer_name = "mecho"
    accepted_events = (SendableEvent, ViewEvent, SuspectEvent,
                       UnsuspectEvent, TimerEvent)
    provided_events = (GroupSendableEvent, PathChangedEvent, SuspectEvent)
    session_class = MechoSession
