"""The kernel/transport seam: what a transport backend must provide.

The protocol stack never talks to a network directly — the bottom layer of
every channel is a :class:`DatagramTransportSession`, which converts
DOWN-travelling :class:`~repro.kernel.events.SendableEvent` instances into
:class:`~repro.kernel.packet.Packet` records and hands them to a
**transport endpoint**, and reconstructs correctly-typed events from
packets the endpoint delivers back.  Everything below that seam is
backend-specific:

* :mod:`repro.simnet` schedules packets on a deterministic virtual
  timeline (the testable oracle);
* :mod:`repro.livenet` serializes packets into real UDP datagrams on an
  asyncio event loop (the deployable backend).

:class:`TransportEndpoint` pins the seam down: the node-side surface the
transport session drives (``node_id``, ``kernel``, port binding, ``send``),
satisfied by :class:`repro.simnet.node.Node` on either backend.  The
network-side surface the scenario and Morpheus layers drive is one class,
:class:`repro.simnet.network.NetworkBase`, which both backends subclass.

Addressing convention carried by ``SendableEvent.dest``:

* ``"node-id"`` — unicast;
* ``("a", "b", ...)`` — native multicast (one transmission); legality is
  the backend's business (the simulator restricts it to one segment);
* ``EachOf(("a", "b", ...))`` — point-to-point fan-out
  (:class:`~repro.kernel.packet.EachOf`): one transmission *per member*,
  in member order, counted, charged and lost-or-delivered exactly like
  that many unicasts of the same message.

Whatever the form, one event is one frozen message
(:meth:`~repro.kernel.message.Message.wire_copy`), one :class:`Packet` and
one call of the backend's ``transmit``: **a group send crosses the kernel
queue once; the per-member loop lives in the network**.  Layers treat
``dest`` as opaque, and the packet a member's transport session gets
carries that member's id as ``dst``.  The logical sender travels in the
packet's ``logical_src`` field (see :mod:`repro.kernel.packet`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Optional, Protocol

from repro.kernel.channel import Channel
from repro.kernel.events import (ChannelClose, ChannelInit, Direction, Event,
                                 SendableEvent, TimerEvent)
from repro.kernel.layer import Layer
from repro.kernel.message import Message
from repro.kernel.packet import EachOf, Packet
from repro.kernel.scheduler import Kernel
from repro.kernel.session import Session

PacketReceiver = Callable[[Packet], None]

_BEAT_TIMER = "supervision-beat"


class TransportEndpoint(Protocol):
    """Node-side transport surface driven by the bottom-of-stack session.

    An endpoint is one device's NIC adapter: it owns the node's identity
    and kernel, demultiplexes inbound packets by port, and injects
    outbound packets into whatever carries them.
    """

    node_id: str
    kernel: Kernel

    def bind_port(self, port: str, receiver: PacketReceiver) -> None:
        """Register ``receiver`` for packets addressed to ``port``."""
        ...  # pragma: no cover - protocol declaration

    def unbind_port(self, port: str) -> None:
        """Release ``port``; unknown ports are ignored."""
        ...  # pragma: no cover - protocol declaration

    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` through the backend network."""
        ...  # pragma: no cover - protocol declaration


class HeartbeatMessage(SendableEvent):
    """Liveness beacon listing the sender's ports that watch the receiver."""

    traffic_class = "control"


class DatagramTransportSession(Session):
    """Bottom-of-stack session bridging Appia channels to an endpoint.

    Plays the role of Appia's UDP transport: DOWN-travelling
    :class:`SendableEvent` instances become packets, delivered packets
    become correctly-typed events injected upwards.  Every channel of a
    node shares the one session (the ``"transport"`` session label), so it
    is also the node's **supervision service**: any packet, on any port,
    is evidence of life of its logical sender and of the relay that
    forwarded it.  Each channel's failure detector finds the service with
    :meth:`of`, registers under its port (:meth:`supervise`) and offers
    ``interval``, ``others()`` and ``beacon(peer)``.
    """

    def __init__(self, layer: Layer,
                 node: Optional[TransportEndpoint] = None) -> None:
        super().__init__(layer)
        self.node = node
        self._channel_by_port: dict[str, Channel] = {}
        self._heard: dict[str, float] = {}
        self._sent: dict[str, float] = {}
        self._detectors: dict[str, Any] = {}
        self._spoke: defaultdict[str, dict[str, float]] = defaultdict(dict)
        self._beat_port: Optional[str] = None
        self._beaten_at = float("-inf")

    # -- event handling ------------------------------------------------------

    def handle(self, event: Event) -> None:
        if isinstance(event, ChannelInit):
            self._on_init(event)
            event.go()
        elif isinstance(event, ChannelClose):
            self._on_close(event)
            event.go()
        elif isinstance(event, SendableEvent) and event.direction is Direction.DOWN:
            if event.dest is None:
                raise ValueError(f"outgoing {event!r} has no destination")
            self._transmit(event, event.channel.name)
        elif isinstance(event, TimerEvent):
            self._beat()
        else:
            event.go()

    def _on_init(self, event: Event) -> None:
        channel = event.channel
        if self.node is None:
            raise RuntimeError(
                f"{type(self).__name__} has no node attached; build the "
                "session through the node facade")
        self._now = self.node.kernel.clock.now
        port = channel.name
        self._channel_by_port[port] = channel
        channel.local_address = self.node.node_id
        self.node.bind_port(port, self._incoming)

    def _on_close(self, event: Event) -> None:
        channel = event.channel
        port = channel.name
        if self._channel_by_port.get(port) is channel:
            del self._channel_by_port[port]
            self._detectors.pop(port, None)
            self._spoke.pop(port, None)
            self.node.unbind_port(port)
            if self._beat_port == port:  # the beat moves to an open channel
                self._arm_beat(next(iter(self._detectors), None))

    # -- supervision ----------------------------------------------------------

    @classmethod
    def of(cls, channel: Channel) -> "DatagramTransportSession":
        """The supervision service of the node ``channel`` runs on."""
        return next(s for s in channel.sessions if isinstance(s, cls))

    def supervise(self, port: str, detector: Any) -> None:
        """Register ``port``'s failure detector; the first one starts the
        node's beat, every ``detector.interval``."""
        self._detectors[port] = detector
        if self._beat_port is None:
            self._arm_beat(port)

    def _arm_beat(self, port: Optional[str]) -> None:
        self._beat_port = port
        if port is not None:
            self.set_periodic_timer(self._detectors[port].interval,
                                    tag=_BEAT_TIMER,
                                    channel=self._channel_by_port[port])

    def last_heard(self, peer: str) -> float:
        """When a packet from ``peer`` last arrived (``-inf``: never)."""
        return self._heard.get(peer, float("-inf"))

    def _beat(self) -> None:
        """Beacon the watched peers not in two-way contact since the last
        beat: sent a packet, and heard from on every port watching them (a
        peer that dropped this node from a channel's view falls silent on
        that port).  The beacon lists those ports; peers with the same
        list share one point-to-point fan-out, straight to the endpoint."""
        since, self._beaten_at = self._beaten_at, self._now()
        watching: dict[str, list[str]] = {}
        for port, detector in self._detectors.items():
            for peer in detector.others():
                watching.setdefault(peer, []).append(port)
        groups: dict[tuple[str, ...], list[str]] = {}
        for peer, ports in watching.items():
            if self._sent.get(peer, since) <= since or any(
                    self._spoke[port].get(peer, since) <= since
                    for port in ports):
                groups.setdefault(tuple(ports), []).append(peer)
        for ports, peers in groups.items():
            beacon = HeartbeatMessage(message=Message(payload=ports),
                                      dest=EachOf(tuple(peers)))
            self._transmit(beacon, ports[0])

    # -- outbound ---------------------------------------------------------------

    def _transmit(self, event: SendableEvent, port: str) -> None:
        # The logical source may differ from the transmitting node when a
        # relay forwards on behalf of a sender; it rides the packet field,
        # not the header stack.
        node, dest, now = self.node, event.dest, self._now()
        local = node.node_id
        source = event.source if event.source is not None else local
        for member in (dest,) if isinstance(dest, str) else \
                dest.members if isinstance(dest, EachOf) else dest:
            self._sent[member] = now
        node.send(Packet(src=local, dst=dest, port=port,
                         event_cls=type(event),
                         message=event.message.wire_copy(),
                         logical_src=source,
                         traffic_class=event.traffic_class))

    # -- inbound ----------------------------------------------------------------

    def _incoming(self, packet: Packet) -> None:
        source, hop = packet.logical_src, packet.src
        now = self._heard[source] = self._now()
        if packet.event_cls is HeartbeatMessage:
            for port in packet.message.payload:
                detector = self._detectors.get(port)
                if detector is not None:
                    self._spoke[port][source] = now
                    detector.beacon(source)
            return
        spoke = self._spoke[packet.port]
        spoke[source] = now
        if hop != source:  # relayed: evidence of the relay too
            self._heard[hop] = spoke[hop] = now
        channel = self._channel_by_port.get(packet.port)
        if channel is None:  # pragma: no cover - unbound race, defensive
            return
        # The packet owns its message handle (frozen at _transmit, or a
        # per-receiver copy_for handle): the event adopts it, no copy.
        event = packet.event_cls(message=packet.message,
                                 source=packet.logical_src, dest=packet.dst)
        channel.insert_from(self, event, Direction.UP)


class DatagramTransportLayer(Layer):
    """Bottom layer: talks to the node's transport endpoint.

    Not registered under a layer name itself — the registered,
    XML-addressable descriptor is :class:`repro.simnet.transport.
    SimTransportLayer` (historical name ``"sim_transport"``), which both
    backends share: the layer is a stateless descriptor, and the *session*
    actually deployed comes preset through the ``"transport"`` binding
    label, bound to whichever endpoint the node runs on.
    """

    layer_name = "transport"
    accepted_events = (SendableEvent,)
    provided_events = (SendableEvent,)
    session_class = DatagramTransportSession
