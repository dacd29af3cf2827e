"""Packets: the wire form of a sendable event, shared by every transport.

A packet is what a transport backend moves between nodes — the simulated
network of :mod:`repro.simnet` schedules them on the virtual timeline, the
asyncio UDP backend of :mod:`repro.livenet` serializes them into real
datagrams — and what the bottom-of-stack transport session produces and
consumes: the event's message (a copy-on-write handle frozen at
transmission time), the event class (so the receiving transport can
reconstruct a correctly-typed event — the kernel's route optimization
depends on the type), addressing, and the traffic class used by the
experiment counters.

Wire framing: the **logical source** of the message travels as a first-class
packet field (``logical_src``) rather than as a pseudo-header pushed onto
the message stack.  It may differ from ``src`` (the transmitting NIC) when
a relay forwards on behalf of a sender.  A packet's ``size_bytes`` is its
message's encoded length plus :func:`framing_bytes`: the address, a
source-field charge and a fixed per-packet overhead.

Fan-out: a request addressed to several receivers — one native-multicast
transmission (``tuple`` destination) or a sequence of point-to-point
transmissions (:class:`EachOf` destination) — reaches the network as *one*
:class:`Packet`, and that one record reaches every receiver: the
receiving transport session gives its event an O(1) handle onto the
frozen message, so a 1→N fan-out allocates no per-receiver packet and no
message deep-copy.

The paper's Figure 3 counts *messages transmitted by the mobile device,
including data and control messages*; the ``traffic_class`` tag lets the
benchmarks report the same total while also breaking it down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.kernel.message import Message

#: Fixed per-packet overhead charged on top of the message size
#: (rough stand-in for UDP/IP + MAC framing).
PACKET_OVERHEAD_BYTES = 28

#: Framing charge for the logical-source field, on top of the address
#: itself.
SRC_FIELD_OVERHEAD = 14

_packet_ids = itertools.count(1)

#: ``logical_src -> `` its :func:`framing_bytes`, computed once per
#: distinct sender rather than once per packet.
_FRAMING_BYTES: dict[str, int] = {}


def framing_bytes(logical_src: str) -> int:
    """The per-packet charge on top of the message: the logical source's
    UTF-8 length, :data:`SRC_FIELD_OVERHEAD` and
    :data:`PACKET_OVERHEAD_BYTES`."""
    framing = _FRAMING_BYTES.get(logical_src)
    if framing is None:
        framing = _FRAMING_BYTES[logical_src] = (
            len(logical_src.encode("utf-8")) + SRC_FIELD_OVERHEAD +
            PACKET_OVERHEAD_BYTES)
    return framing


DATA = "data"
CONTROL = "control"


@dataclass(frozen=True, slots=True, repr=False)
class EachOf:
    """Destination of a point-to-point fan-out: one packet per member.

    The paper's baseline multicast is *"a sequence of point-to-point
    messages (one for each participant)"*.  A layer that sends such a
    sequence addresses **one** event to ``EachOf(members)``: the request
    crosses the kernel queue and the transport session once, and the
    network expands it — in member order, each member its own
    transmission with its own accounting, energy charge and loss draws,
    exactly as if the sender had issued the unicasts back to back.  (A
    ``tuple`` destination, by contrast, is *one* native-multicast
    transmission.)  Layers between the sender and the transport treat it
    like any other ``dest``: opaque.
    """

    members: tuple[str, ...]

    def __repr__(self) -> str:
        shown = ",".join(self.members[:3])
        if len(self.members) > 3:
            shown += f",+{len(self.members) - 3}"
        return f"EachOf({shown})"


@dataclass(slots=True)
class Packet:
    """One datagram.

    Attributes:
        src: transmitting node identifier (the NIC the packet left from).
        dst: destination node identifier, a tuple of identifiers for a
            native-multicast transmission, or an :class:`EachOf` for a
            point-to-point fan-out (every receiver of either gets this
            record; a live datagram's decoded record carries the
            receiver's identifier).
        port: demultiplexing key — by convention the channel name.
        event_cls: the :class:`SendableEvent` subclass to reconstruct on
            delivery.
        message: the carried message (a frozen copy-on-write handle; a
            receiver that keeps it past delivery takes its own handle).
        logical_src: the message's logical sender, reported as the
            reconstructed event's ``source``; defaults to ``src``.
        traffic_class: ``"data"`` or ``"control"``.
        size_bytes: the message's encoded length plus
            :func:`framing_bytes` — what delay, loss, battery and the byte
            counters charge.
        sent_at: transmission time on the transport's clock (set by the
            network).
    """

    src: str
    dst: Any
    port: str
    event_cls: type
    message: Message
    logical_src: Optional[str] = None
    traffic_class: str = DATA
    size_bytes: int = field(init=False, default=0)
    sent_at: float = 0.0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        logical_src = self.logical_src
        if logical_src is None:
            logical_src = self.logical_src = self.src
        self.size_bytes = self.message.size_bytes + framing_bytes(logical_src)

    @property
    def is_multicast(self) -> bool:
        """True when addressed to several receivers in one transmission
        (native multicast; an :class:`EachOf` is several transmissions)."""
        return isinstance(self.dst, tuple)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Packet #{self.packet_id} {self.src}->{self.dst} "
                f"port={self.port} {self.traffic_class} "
                f"{self.event_cls.__name__} {self.size_bytes}B>")
