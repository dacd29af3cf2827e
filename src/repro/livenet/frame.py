"""The datagram frame: ``Packet`` metadata + codec blobs on a real wire.

ROADMAP direction 4 called the shot: the compact codec's frozen
``WirePayload`` blob *is* the framing a socket transport puts on the wire.
A frame (version 3) is::

    MAGIC(1) VERSION(1) varint(len(names)) names body

``names`` is the UTF-8 of the packet's ``src``, ``logical_src``,
``port``, event-class name and traffic class, joined by NUL (a name
holding a NUL cannot be framed).  ``body`` is the carried
:class:`~repro.kernel.message.Message` as a :mod:`repro.kernel.codec`
value (tag ``0x0E``: the bytes each header cell was encoded to when it
was pushed — or arrived with — spliced in as they are, then the frozen
payload blob re-embedded verbatim via tag ``0x0F``; framing a packet, a
relayed one included, encodes no header and no payload again).  The body
is exactly ``packet.message.size_bytes`` bytes, so the frame carries no
size: the receiver recomputes the packet's from the message it decodes.

**The socket is the address.**  ``dst`` is not on the wire: the
receiving endpoint's node id is, because the live network sends a
node's datagrams to that node's socket only.  So every datagram of one
request — a unicast, a native multicast, an ``EachOf`` fan-out — is the
same ``bytes``, encoded once (:meth:`LiveNetwork._route
<repro.livenet.network.LiveNetwork._route>`), and the receiver passes
its own id to :func:`decode_frame`.

Decoding rebuilds a :class:`~repro.kernel.packet.Packet` that is
indistinguishable, to the receiving transport session, from the record the
simulator would have delivered: same event class (resolved by its unique
``__name__`` — the :class:`SendableEvent` wire contract), same logical
source, same ``size_bytes``.  The header cells, the payload and every
blob nested in either (a retransmitted or relayed message's payload) are
decoded in the same call: each payload stays a
:class:`~repro.kernel.message.WirePayload` (relaying it re-embeds the
blob), with its decoded value already in hand.

Safety contract for the receive loop: **every** malformed input —
truncation, garbage bytes, an oversized datagram, an unknown frame
version (versions 1 and 2 included), the wrong number of names, an unknown
event class, trailing bytes, a malformed payload or nested payload — raises
:class:`CodecError` and nothing else, so no layer reading the payload
later can.  The transport counts and drops; a bad datagram can never
crash the node.
"""

from __future__ import annotations

from repro.kernel import codec
from repro.kernel.codec import (CodecError, decode_message, decode_payload,
                                encode_payload)
from repro.kernel.message import WirePayload
from repro.kernel.packet import Packet, _packet_ids, framing_bytes

# The wire vocabulary: importing the protocol events module guarantees
# every stack-deployable SendableEvent subclass exists before the first
# decode resolves names against the subclass tree.
import repro.protocols.events  # noqa: F401  (registers wire event classes)

#: First frame byte; anything else is not ours (or is hopelessly mangled).
FRAME_MAGIC = 0xA9
#: Frame layout version; bumped on any incompatible change.
FRAME_VERSION = 3
#: Largest UDP payload over IPv4 (65535 - 8 UDP - 20 IP).  Frames beyond
#: this cannot leave the socket; the check fails fast on both sides.
MAX_DATAGRAM_BYTES = 65507

#: Separator of the frame's names (never inside a valid one).
_SEP = "\0"
_NAMES = 5  # src, logical_src, port, event class, traffic class

#: Re-exported from the codec: the frame header and embedded class
#: references (codec tag ``0x10``) share one resolver, so both honour the
#: same unique-``__name__`` wire contract.
resolve_event_class = codec.resolve_event_class


def encode_frame(packet: Packet) -> bytes:
    """Serialize ``packet`` into the datagram every receiver of it gets.

    Raises:
        CodecError: if the frame would exceed :data:`MAX_DATAGRAM_BYTES`
            (an application payload too large for a single datagram — the
            caller drops and counts it), a name holds a NUL, or the
            message contains values outside the wire format.
    """
    names = _SEP.join((packet.src, packet.logical_src, packet.port,
                       packet.event_cls.__name__, packet.traffic_class))
    if names.count(_SEP) != _NAMES - 1:
        raise CodecError(f"a frame name holds a NUL ({packet!r})")
    encoded = names.encode("utf-8")
    body = encode_payload(packet.message)
    out = bytearray((FRAME_MAGIC, FRAME_VERSION))
    codec._append_varint(out, len(encoded))
    out += encoded
    out += body
    if len(out) > MAX_DATAGRAM_BYTES:
        raise CodecError(
            f"frame of {len(out)} bytes exceeds the {MAX_DATAGRAM_BYTES}-"
            f"byte datagram limit ({packet!r})")
    return bytes(out)


def decode_frame(data: bytes, dst: str) -> Packet:
    """Rebuild the :class:`Packet` one datagram carries to node ``dst``
    (the id of the endpoint it arrived at).

    Raises:
        CodecError: for every malformed input — truncated or garbage
            frames, oversized datagrams, unknown versions, unknown event
            classes, a names field of the wrong shape, a body that is not
            exactly one message, a payload blob — the message's own or
            one nested in it — that is not exactly one value.  No other
            exception escapes (arbitrary bytes must never crash the
            receive loop).
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
        names_len, pos = codec._read_varint(data, 2)
        end = pos + names_len
        if end > len(data):
            raise CodecError(f"truncated frame names ({names_len} declared, "
                             f"{len(data) - pos} present)")
        names = data[pos:end].decode("utf-8").split(_SEP)
        if len(names) != _NAMES:
            raise CodecError(f"frame carries {len(names)} names, not "
                             f"{_NAMES}")
        message = decode_message(data, end)
        payload = message._payload
        if type(payload) is WirePayload and data.count(0x0F, end) == 1:
            # The body's one 0x0F byte is this payload's blob tag, so
            # nothing in the frame is a nested blob: skip the walk.
            payload._decoded = decode_payload(payload.blob)
        else:
            codec.decode_nested(message)
        src, logical_src, port, event_name, traffic_class = names
        event_cls = resolve_event_class(event_name)
        size_bytes = message.size_bytes + framing_bytes(logical_src)
    except CodecError:
        raise
    except Exception as exc:
        # The codec's own errors are CodecError, but adversarial bytes can
        # still reach e.g. UTF-8 decoding; fold everything into the one
        # exception the receive loop handles.
        raise CodecError(f"malformed frame: {exc}") from exc
    # Built field by field: the dataclass __init__ would only repeat the
    # defaults and the size computed here.
    packet = object.__new__(Packet)
    packet.src = src
    packet.dst = dst
    packet.port = port
    packet.event_cls = event_cls
    packet.message = message
    packet.logical_src = logical_src
    packet.traffic_class = traffic_class
    packet.size_bytes = size_bytes
    packet.sent_at = 0.0
    packet.packet_id = next(_packet_ids)
    return packet

