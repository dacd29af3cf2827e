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

Two structural protocols pin the seam down:

* :class:`TransportEndpoint` — the node-side surface the transport session
  drives (``node_id``, ``kernel``, port binding, ``send``).  Satisfied by
  :class:`repro.simnet.node.SimNode` and :class:`repro.livenet.node.LiveNode`.
* :class:`Transport` — the network-side surface the scenario and Morpheus
  layers drive (node registry, topology mutation, counters, a shared
  :class:`~repro.kernel.clock.Clock` as ``engine``).  Satisfied by
  :class:`repro.simnet.network.Network` and
  :class:`repro.livenet.network.LiveNetwork`.

Addressing convention carried by ``SendableEvent.dest``:

* ``"node-id"`` — unicast;
* ``("a", "b", ...)`` — native multicast (one transmission); legality is
  the backend's business (the simulator restricts it to one segment);
* ``EachOf(("a", "b", ...))`` — point-to-point fan-out
  (:class:`~repro.kernel.packet.EachOf`): one transmission *per member*,
  in member order, counted, charged and lost-or-delivered exactly like
  that many unicasts of the same message.

Whatever the form, one event is one ``_send``, one frozen message, one
:class:`Packet` and one call of the backend's ``transmit``: **a group send
crosses the kernel queue once; the per-member loop lives in the network**.
A layer that wants a copy at several peers addresses one event to all of
them instead of cloning an event per peer, and a layer below it treats
``dest`` as opaque.  Receivers cannot tell the difference — the packet a
member's transport session gets carries that member's id as ``dst``.

Wire framing: the outgoing message is frozen with
:meth:`~repro.kernel.message.Message.wire_copy` (an O(1) copy-on-write
handle with mutable payloads snapshotted once per transmission), and the
logical sender travels in the packet's first-class ``logical_src`` field
(see :mod:`repro.kernel.packet` for the byte-accounting contract).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Protocol

from repro.kernel.channel import Channel
from repro.kernel.clock import Clock
from repro.kernel.events import (ChannelClose, ChannelInit, Direction, Event,
                                 SendableEvent)
from repro.kernel.layer import Layer
from repro.kernel.packet import Packet
from repro.kernel.scheduler import Kernel
from repro.kernel.session import Session

PacketReceiver = Callable[[Packet], None]


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


class Transport(Protocol):
    """Network-side surface shared by the simulated and live backends.

    This is the contract :class:`repro.simnet.network.Network` already
    satisfies and :class:`repro.livenet.network.LiveNetwork` mirrors; the
    scenario runner, the Morpheus facade, and the context retrievers are
    written against it (duck-typed — the protocol documents the seam, it
    is not enforced at run time).
    """

    engine: Clock
    topology_epoch: int
    lost_packets: int
    delivered_packets: int

    def node(self, node_id: str) -> TransportEndpoint:
        ...  # pragma: no cover - protocol declaration

    def add_node(self, node_id: str, kind: Any,
                 battery: Any = None) -> TransportEndpoint:
        ...  # pragma: no cover - protocol declaration

    def remove_node(self, node_id: str) -> None:
        ...  # pragma: no cover - protocol declaration

    def move_node(self, node_id: str, kind: Any) -> TransportEndpoint:
        ...  # pragma: no cover - protocol declaration

    def crash_node(self, node_id: str) -> None:
        ...  # pragma: no cover - protocol declaration

    def recover_node(self, node_id: str) -> None:
        ...  # pragma: no cover - protocol declaration

    def partition(self, *groups: Iterable[str]) -> None:
        ...  # pragma: no cover - protocol declaration

    def heal_partition(self) -> None:
        ...  # pragma: no cover - protocol declaration

    def reachable(self, src: str, dst: str) -> bool:
        """Whether the partition topology lets ``src`` reach ``dst``."""
        ...  # pragma: no cover - protocol declaration

    def subscribe_topology(self, listener: Callable[[Any], None]) -> None:
        ...  # pragma: no cover - protocol declaration

    def unsubscribe_topology(self, listener: Callable[[Any], None]) -> None:
        ...  # pragma: no cover - protocol declaration


class DatagramTransportSession(Session):
    """Bottom-of-stack session bridging Appia channels to an endpoint.

    Plays the role of Appia's UDP transport: DOWN-travelling
    :class:`SendableEvent` instances become packets handed to the
    endpoint; packets the endpoint delivers are reconstructed into
    correctly-typed events and injected upwards.

    One transport *session* is shared by every channel of a node (the
    paper's control channel and data channels all reach the same NIC),
    using the kernel's session-sharing mechanism: the session label
    ``"transport"`` in XML descriptions binds each new channel to the
    node's existing session.

    Session state: the owning endpoint plus the channels bound through it.
    """

    def __init__(self, layer: Layer,
                 node: Optional[TransportEndpoint] = None) -> None:
        super().__init__(layer)
        self.node = node
        self._channel_by_port: dict[str, Channel] = {}

    def attach_node(self, node: TransportEndpoint) -> None:
        """Late-bind the owning endpoint (used when built programmatically)."""
        self.node = node

    # -- event handling ------------------------------------------------------

    def handle(self, event: Event) -> None:
        if isinstance(event, ChannelInit):
            self._on_init(event)
            event.go()
        elif isinstance(event, ChannelClose):
            self._on_close(event)
            event.go()
        elif isinstance(event, SendableEvent) and event.direction is Direction.DOWN:
            self._send(event)
        else:
            event.go()

    def _on_init(self, event: Event) -> None:
        channel = event.channel
        assert channel is not None
        if self.node is None:
            raise RuntimeError(
                f"{type(self).__name__} has no node attached; build the "
                "session through the node facade (or call attach_node)")
        port = channel.name
        self._channel_by_port[port] = channel
        channel.local_address = self.node.node_id
        self.node.bind_port(port, self._incoming)

    def _on_close(self, event: Event) -> None:
        channel = event.channel
        assert channel is not None
        port = channel.name
        if self._channel_by_port.get(port) is channel:
            del self._channel_by_port[port]
            if self.node is not None:
                self.node.unbind_port(port)

    # -- outbound ---------------------------------------------------------------

    def _send(self, event: SendableEvent) -> None:
        assert self.node is not None and event.channel is not None
        if event.dest is None:
            raise ValueError(f"outgoing {event!r} has no destination")
        # The logical source may differ from the transmitting node when a
        # relay forwards on behalf of a sender; it rides the packet field,
        # not the header stack.
        source = event.source if event.source is not None else self.node.node_id
        packet = Packet(src=self.node.node_id, dst=event.dest,
                        port=event.channel.name, event_cls=type(event),
                        message=event.message.wire_copy(),
                        logical_src=source,
                        traffic_class=event.traffic_class)
        self.node.send(packet)

    # -- inbound ----------------------------------------------------------------

    def _incoming(self, packet: Packet) -> None:
        channel = self._channel_by_port.get(packet.port)
        if channel is None:  # pragma: no cover - unbound race, defensive
            return
        # The packet owns its message handle (unicast: frozen at _send;
        # multicast and fan-out: a per-receiver handle from copy_for), so
        # the event can adopt it directly — zero message copies on the
        # delivery path.
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
