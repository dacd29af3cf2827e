"""The datagram frame: ``Packet`` metadata + codec blobs on a real wire.

ROADMAP direction 4 called the shot: the compact codec's frozen
``WirePayload`` blob *is* the framing a socket transport puts on the wire.
A frame is::

    MAGIC(1) VERSION(1) varint(len(meta)) meta body

where ``meta`` and ``body`` are both :mod:`repro.kernel.codec` values —
``meta`` a tuple of the packet's addressing and accounting fields, ``body``
the carried :class:`~repro.kernel.message.Message` (tag ``0x0E``: the
bytes each header cell was encoded to when it was pushed — or arrived
with — spliced in as they are, then the frozen payload blob re-embedded
verbatim via tag ``0x0F``; framing a packet, a relayed one included,
encodes no header and no payload again).  Decoding
rebuilds a :class:`~repro.kernel.packet.Packet` that is
indistinguishable, to the receiving transport session, from the record the
simulator would have delivered: same event class (resolved by its unique
``__name__`` — the :class:`SendableEvent` wire contract), same logical
source, same byte charges (carried explicitly so live counters reproduce
the sender's accounting exactly).

Safety contract for the receive loop: **every** malformed input —
truncation, garbage bytes, an oversized datagram, an unknown frame
version, an unknown event class — raises :class:`CodecError` and nothing
else.  The transport counts and drops; a bad datagram can never crash the
node.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel import codec
from repro.kernel.codec import CodecError, decode_payload, encode_payload
from repro.kernel.message import Message
from repro.kernel.packet import Packet

# The wire vocabulary: importing the protocol events module guarantees
# every stack-deployable SendableEvent subclass exists before the first
# decode resolves names against the subclass tree.
import repro.protocols.events  # noqa: F401  (registers wire event classes)

#: First frame byte; anything else is not ours (or is hopelessly mangled).
FRAME_MAGIC = 0xA9
#: Frame layout version; bumped on any incompatible change.
FRAME_VERSION = 1
#: Largest UDP payload over IPv4 (65535 - 8 UDP - 20 IP).  Frames beyond
#: this cannot leave the socket; the check fails fast on both sides.
MAX_DATAGRAM_BYTES = 65507

_META_FIELDS = 8  # src, logical_src, port, event, dst, class, sizes


#: Re-exported from the codec: the frame header and embedded class
#: references (codec tag ``0x10``) share one resolver, so both honour the
#: same unique-``__name__`` wire contract.
resolve_event_class = codec.resolve_event_class


def encode_body(message: Message) -> bytes:
    """The frame body of ``message`` — what every frame of one request
    shares (see :func:`encode_frame`).

    Raises:
        CodecError: if the message contains values outside the wire
            format.
    """
    return encode_payload(message)[0]


def encode_frame(packet: Packet, body: Optional[bytes] = None) -> bytes:
    """Serialize ``packet`` into one datagram.

    ``body`` is ``encode_body(packet.message)`` when the caller already
    holds it: the per-receiver packets of a fan-out share their message,
    so their frames differ only in the meta's ``dst`` and the body is
    encoded once per request, not once per datagram.

    Raises:
        CodecError: if the frame would exceed :data:`MAX_DATAGRAM_BYTES`
            (an application payload too large for a single datagram — the
            caller drops and counts it) or the message contains values
            outside the wire format.
    """
    meta = (packet.src, packet.logical_src, packet.port,
            packet.event_cls.__name__, packet.dst, packet.traffic_class,
            packet.size_bytes, packet.wire_bytes)
    meta_blob, _ = encode_payload(meta)
    body_blob = body if body is not None else encode_body(packet.message)
    out = bytearray((FRAME_MAGIC, FRAME_VERSION))
    codec._append_varint(out, len(meta_blob))
    out += meta_blob
    out += body_blob
    if len(out) > MAX_DATAGRAM_BYTES:
        raise CodecError(
            f"frame of {len(out)} bytes exceeds the {MAX_DATAGRAM_BYTES}-"
            f"byte datagram limit ({packet!r})")
    return bytes(out)


def decode_frame(data: bytes) -> Packet:
    """Rebuild the :class:`Packet` one datagram carries.

    Raises:
        CodecError: for every malformed input — truncated or garbage
            frames, oversized datagrams, unknown versions, unknown event
            classes, meta tuples of the wrong shape.  No other exception
            escapes (arbitrary bytes must never crash the receive loop).
    """
    if len(data) > MAX_DATAGRAM_BYTES:
        raise CodecError(f"oversized datagram ({len(data)} bytes)")
    if len(data) < 3:
        raise CodecError(f"truncated frame ({len(data)} bytes)")
    if data[0] != FRAME_MAGIC:
        raise CodecError(f"bad frame magic 0x{data[0]:02X}")
    if data[1] != FRAME_VERSION:
        raise CodecError(f"unknown frame version {data[1]}")
    try:
        meta_len, pos = codec._read_varint(data, 2)
        end = pos + meta_len
        if end > len(data):
            raise CodecError(f"truncated frame meta ({meta_len} declared, "
                             f"{len(data) - pos} present)")
        meta = decode_payload(data[pos:end])
        message = decode_payload(data[end:])
    except CodecError:
        raise
    except Exception as exc:
        # The codec's own errors are CodecError, but adversarial bytes can
        # still reach e.g. UTF-8 decoding; fold everything into the one
        # exception the receive loop handles.
        raise CodecError(f"malformed frame: {exc}") from exc
    if not isinstance(meta, tuple) or len(meta) != _META_FIELDS:
        raise CodecError(f"bad frame meta shape: {meta!r}")
    src, logical_src, port, event_name, dst, traffic_class, \
        size_bytes, wire_bytes = meta
    if not (isinstance(src, str) and isinstance(logical_src, str) and
            isinstance(port, str) and isinstance(event_name, str) and
            isinstance(traffic_class, str) and
            isinstance(size_bytes, int) and isinstance(wire_bytes, int) and
            isinstance(dst, (str, tuple))):
        raise CodecError(f"bad frame meta field types: {meta!r}")
    if not isinstance(message, Message):
        raise CodecError(f"frame body is not a message: {type(message)}")
    event_cls = resolve_event_class(event_name)
    return Packet(src=src, dst=dst, port=port, event_cls=event_cls,
                  message=message, logical_src=logical_src,
                  traffic_class=traffic_class, size_bytes=size_bytes,
                  wire_bytes=wire_bytes)
