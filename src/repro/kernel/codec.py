"""The compact binary wire codec: the package's one serializer.

A payload frozen at the wire boundary
(:meth:`~repro.kernel.message.Message.wire_copy`, used by the transport
on every send), a header cell, a live datagram's body and an FEC block
are all one value in this format.

Wire format — one tagged value, recursively::

    value   := small_int | tagged
    small_int := byte with the top bit set; encodes ints 0..127 inline
    tagged  := tag:byte payload

    0x00 None          0x01 True           0x02 False
    0x03 int           zigzag varint
    0x04 float         8-byte IEEE-754 big-endian
    0x05 str           varint byte-length + UTF-8
    0x06 interned str  varint key-table id (see below)
    0x07 bytes         varint length + raw
    0x08 bytearray     varint length + raw
    0x09 list          varint count + values
    0x0A tuple         varint count + values
    0x0B set           varint count + values
    0x0C frozenset     varint count + values
    0x0D dict          varint count + (key value) pairs
    0x0E message       varint header count + headers bottom→top + payload
    0x0F wire blob     varint length + raw
                       (an already-encoded nested payload re-embedded
                       verbatim — retransmission stores forward received
                       frozen bytes without a decode/re-encode round trip)

Varints are LEB128 (7 bits per byte, little-endian groups, high bit =
continuation); signed integers are zigzag-mapped first.

**Key interning.**  Header and payload dictionaries across the protocol
suite reuse a small vocabulary of string keys ("kind", "epoch", "seqno",
…).  A registry-backed key table maps each to a small integer so repeated
header dicts serialize the key as one or two bytes (tag 0x06 + varint id).
The table is part of the wire contract: ids are assigned in registration
order, the built-in vocabulary is registered at import time, and any
extension (:func:`register_wire_key`) must happen identically on every
node before traffic flows — in-process simulation gets this for free; a
real transport would ship the table in a hello frame.

**Shared ids.**  The decoder hands out one ``str`` per distinct short
string in a tuple or list (a header's sender id, a view's members) from a
bounded process-wide table (:data:`SHARED_STRINGS_MAX`), so the ids that
every datagram repeats are not held once per received header.

**One byte model.**  A message costs its encoded length
(:attr:`~repro.kernel.message.Message.size_bytes`), which link delay, loss
draws, battery drain and the byte counters all read.
Header cells are encoded once, when a header is pushed
(:func:`encode_header`); encoding a message then joins the cells' bytes
and never walks a header again, and its length is arithmetic over the
cells and the frozen payload blob.  :data:`PARITY` asserts every encode
decodes back to an equal value.

**Total and loud.**  A value outside the table above (a custom class
instance, a dataclass) raises :class:`CodecError` where it is first
frozen — at ``push_header`` for a header, at ``wire_copy`` for a payload —
on the sender, on both backends; there is no second path.  Malformed
input raises :class:`CodecError` and nothing else, and
:func:`decode_nested` decodes the blobs nested in a received value, so no
later read of them can raise.
"""

from __future__ import annotations

import os
import struct
from typing import Any

# The message module imports this one too.  Each binds the other as a
# module object and reads its names at call time, so either may load first.
from repro.kernel import message as _message

__all__ = [
    "CodecError", "PARITY", "decode_message", "decode_nested",
    "decode_payload", "encode_header",
    "encode_payload", "register_wire_key", "resolve_event_class",
    "set_parity", "wire_key_table",
]


class CodecError(Exception):
    """A value outside the wire format, or bytes that are not a wire value."""


#: Parity mode: every encode asserts that the blob decodes back to an
#: equal value, consuming every byte.  Enabled in the tier-1 parity test
#: and by ``REPRO_CODEC_PARITY=1``.
PARITY = bool(os.environ.get("REPRO_CODEC_PARITY"))


def set_parity(enabled: bool) -> None:
    """Toggle parity checking (see :data:`PARITY`)."""
    global PARITY
    PARITY = bool(enabled)


# -- key interning ------------------------------------------------------------

#: Registration-ordered key table.  Order is the wire contract: id N is the
#: N-th registered key, on every node.
_KEY_LIST: list[str] = []
_KEY_IDS: dict[str, int] = {}


def register_wire_key(key: str) -> int:
    """Register ``key`` in the interning table; returns its id.

    Idempotent.  Must be called in identical order everywhere before any
    traffic is exchanged (module-import registration satisfies this).
    """
    existing = _KEY_IDS.get(key)
    if existing is not None:
        return existing
    key_id = len(_KEY_LIST)
    _KEY_LIST.append(key)
    _KEY_IDS[key] = key_id
    return key_id


def wire_key_table() -> tuple[str, ...]:
    """The current key table, id order (diagnostics and tests)."""
    return tuple(_KEY_LIST)


#: Built-in vocabulary: dict keys and short enum-like values the protocol
#: suite sends on nearly every packet.  Extend only by appending (the wire
#: contract pins existing ids).
for _key in (
    "kind", "from", "epoch", "seqno", "sender", "seq", "msg", "view",
    "members", "config_id", "lineage", "name", "xml", "text", "tag",
    "cut", "coordinator", "view_id", "announcer", "incarnation",
    "group", "src", "dst", "origin", "target", "base", "joiners",
    "leavers", "stamp", "ballot", "round", "ts", "data", "payload",
    "hops", "ttl", "id", "chat", "hb", "nack", "sync", "advert",
    "reconfig", "reconfig_done",
):
    register_wire_key(_key)
del _key


# -- varints ------------------------------------------------------------------

def _append_varint(out: bytearray, value: int) -> None:
    """LEB128-append non-negative ``value`` to ``out``."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    while True:
        try:
            byte = buf[pos]
        except IndexError:
            raise CodecError("truncated varint") from None
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# -- encoding -----------------------------------------------------------------

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from

_SEQ_TAGS = {list: 0x09, tuple: 0x0A, set: 0x0B, frozenset: 0x0C}


def _encode_str(out: bytearray, value: str) -> None:
    key_id = _KEY_IDS.get(value)
    if key_id is not None:
        out.append(0x06)
        _append_varint(out, key_id)
    else:
        encoded = value.encode("utf-8")
        out.append(0x05)
        _append_varint(out, len(encoded))
        out += encoded


def _encode(out: bytearray, obj: Any) -> None:
    """Append ``obj``'s wire form to ``out``."""
    kind = type(obj)
    if kind is str:
        _encode_str(out, obj)
    elif kind is bool:
        out.append(0x01 if obj else 0x02)
    elif kind is int:
        if 0 <= obj <= 0x7F:
            out.append(0x80 | obj)
        else:
            out.append(0x03)
            _append_varint(out, _zigzag(obj))
    elif obj is None:
        out.append(0x00)
    elif kind is float:
        out.append(0x04)
        out += _pack_double(obj)
    elif kind is bytes or kind is bytearray:
        out.append(0x07 if kind is bytes else 0x08)
        _append_varint(out, len(obj))
        out += obj
    elif kind is dict:
        out.append(0x0D)
        _append_varint(out, len(obj))
        for key, value in obj.items():
            _encode(out, key)
            _encode(out, value)
    elif (seq_tag := _SEQ_TAGS.get(kind)) is not None:
        out.append(seq_tag)
        _append_varint(out, len(obj))
        for item in obj:
            _encode(out, item)
    # Structured leaves the hot loop never sees: nested messages (carried
    # by retransmission stores and relays) and re-embedded frozen blobs.
    elif kind is _message.WirePayload:
        out.append(0x0F)
        blob = obj.blob
        _append_varint(out, len(blob))
        out += blob
    elif kind is _message.Message:
        # tag ‖ depth ‖ cached cell bytes ‖ payload: every header was
        # encoded when its cell was made (see ``encode_header``), so a
        # relay, a retransmission and an N-way fan-out splice the same
        # bytes in and only the first wire crossing of a cell ever ran
        # the codec over it.
        out.append(0x0E)
        top = obj._top
        if top is None:
            out.append(0)
        else:
            _append_varint(out, top.depth)
            cells = []
            while top is not None:
                cells.append(top.wire)
                top = top.below
            cells.reverse()  # the wire order is bottom → top
            out += b"".join(cells)
        payload = obj._payload
        if type(payload) is not _message.WirePayload:
            # Route through the copy-family cache so every relay and
            # retransmission embedding this message shares one payload
            # encode — the nested-snapshot sharing the object path had.
            payload = obj.wire_copy()._payload
        _encode(out, payload)
    else:
        # Event-class references: retransmission stores and gossip relays
        # ship the original event's class so the receiver can
        # re-instantiate it.  The class's unique ``__name__``
        # is already the wire contract (datagram frames resolve event
        # classes the same way).
        from repro.kernel.events import SendableEvent
        if not (isinstance(obj, type) and issubclass(obj, SendableEvent)):
            raise CodecError(f"cannot wire-encode {kind.__name__}")
        out.append(0x10)
        encoded = obj.__name__.encode("utf-8")
        _append_varint(out, len(encoded))
        out += encoded


def encode_payload(obj: Any) -> bytes:
    """Encode ``obj`` for the wire.

    Raises:
        CodecError: for types outside the wire format.
    """
    out = bytearray()
    _encode(out, obj)
    blob = bytes(out)
    if PARITY:
        _assert_parity(obj, blob)
    return blob


#: One header's wire form, for its stack cell: :func:`encode_payload`
#: under a second name, so the spans that time payload encodes (they wrap
#: the module's ``encode_payload``) do not count the cells.
encode_header = encode_payload


# -- decoding -----------------------------------------------------------------

#: Most distinct strings :data:`_shared_strings` holds.
SHARED_STRINGS_MAX = 4096
#: The short strings (under 128 bytes) of decoded tuples and lists, one
#: ``str`` per distinct encoding, process-wide: the ids a header carries
#: on every datagram are held once, however many history rows keep them.
#: A full table still decodes; it only stops sharing, so a peer that
#: sends fresh strings costs at most the cap.
_shared_strings: dict[bytes, str] = {}


def _decode(buf: bytes, pos: int) -> tuple[Any, int]:
    """Read the value at ``pos``: ``(value, next pos)``."""
    try:
        return _decode_at(buf, pos)
    except IndexError:
        raise CodecError("truncated value") from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"malformed string: {exc}") from None


def _decode_at(buf: bytes, pos: int) -> tuple[Any, int]:
    """:func:`_decode` without its guards: an ``IndexError`` here is a
    read past the end of ``buf``, a ``UnicodeDecodeError`` a string that
    is not UTF-8."""
    tag = buf[pos]
    pos += 1
    if tag & 0x80:
        return tag & 0x7F, pos
    if tag == 0x05:
        length, pos = _read_varint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise CodecError("truncated string")
        return buf[pos:end].decode("utf-8"), end
    if tag == 0x0A or tag == 0x09 or tag == 0x0B or tag == 0x0C:
        count = buf[pos]
        if count & 0x80:
            count, pos = _read_varint(buf, pos)
        else:
            pos += 1
        items = []
        append = items.append
        shared = _shared_strings
        for _ in range(count):
            # The leaves of a header tuple, read in place: a small int,
            # a string of under 128 bytes.
            byte = buf[pos]
            if byte & 0x80:
                append(byte & 0x7F)
                pos += 1
                continue
            if byte == 0x05:
                length = buf[pos + 1]
                if not length & 0x80:
                    start = pos + 2
                    pos = start + length
                    if pos > len(buf):
                        raise CodecError("truncated string")
                    raw = buf[start:pos]
                    text = shared.get(raw)
                    if text is None:
                        text = raw.decode("utf-8")
                        if len(shared) < SHARED_STRINGS_MAX:
                            shared[raw] = text
                    append(text)
                    continue
            item, pos = _decode_at(buf, pos)
            append(item)
        if tag == 0x09:
            return items, pos
        return (tuple, set, frozenset)[tag - 0x0A](items), pos
    if tag == 0x0D:
        count = buf[pos]
        if count & 0x80:
            count, pos = _read_varint(buf, pos)
        else:
            pos += 1
        result = {}
        for _ in range(count):
            # An interned key and a small-int value, read in place.
            if buf[pos] == 0x06 and not buf[pos + 1] & 0x80:
                key_id = buf[pos + 1]
                if key_id >= len(_KEY_LIST):
                    raise CodecError(f"unknown interned key id {key_id}")
                key = _KEY_LIST[key_id]
                pos += 2
            else:
                key, pos = _decode_at(buf, pos)
            byte = buf[pos]
            if byte & 0x80:
                result[key] = byte & 0x7F
                pos += 1
            else:
                result[key], pos = _decode_at(buf, pos)
        return result, pos
    if tag == 0x06:
        key_id, pos = _read_varint(buf, pos)
        if key_id >= len(_KEY_LIST):
            raise CodecError(f"unknown interned key id {key_id}")
        return _KEY_LIST[key_id], pos
    if tag == 0x00:
        return None, pos
    if tag == 0x01:
        return True, pos
    if tag == 0x02:
        return False, pos
    if tag == 0x03:
        raw, pos = _read_varint(buf, pos)
        return _unzigzag(raw), pos
    if tag == 0x04:
        if pos + 8 > len(buf):
            raise CodecError("truncated float")
        return _unpack_double(buf, pos)[0], pos + 8
    if tag == 0x07 or tag == 0x08:
        length, pos = _read_varint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise CodecError("truncated bytes")
        raw = buf[pos:end]
        return (raw if tag == 0x07 else bytearray(raw)), end
    if tag == 0x0E:
        return _decode_message(buf, pos)
    if tag == 0x0F:
        length, pos = _read_varint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise CodecError("truncated embedded blob")
        return _message.WirePayload(buf[pos:end]), end
    if tag == 0x10:
        length, pos = _read_varint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise CodecError("truncated class name")
        try:
            name = buf[pos:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"malformed class name: {exc}") from None
        return resolve_event_class(name), end
    raise CodecError(f"unknown wire tag 0x{tag:02X}")


def _decode_message(buf: bytes, pos: int) -> tuple[Any, int]:
    """The body of a ``0x0E`` value at ``pos``: the message, its header
    cells and its payload, built in one pass.

    Each cell keeps the bytes just read as its wire form, so forwarding
    the message re-encodes none of its headers, and the cumulative length
    a pushed cell computes (:class:`~repro.kernel.message._HeaderNode`) is
    carried here in a local: nothing is walked twice.
    """
    count = buf[pos]
    if count & 0x80:
        count, pos = _read_varint(buf, pos)
    else:
        pos += 1
    new = object.__new__
    cell_class = _message._HeaderNode
    top = None
    wire_len = 0
    for depth in range(1, count + 1):
        start = pos
        header, pos = _decode_at(buf, pos)
        cell = new(cell_class)
        cell.header = header
        cell.below = top
        cell.wire = buf[start:pos]
        cell.depth = depth
        wire_len += pos - start
        cell.wire_stack_len = wire_len
        top = cell
    payload, pos = _decode_at(buf, pos)
    message = new(_message.Message)
    message._payload = payload
    message._top = top
    message._wire_cache = None
    return message, pos


def decode_message(buf: bytes, pos: int = 0) -> Any:
    """Decode the message (tag ``0x0E``) at ``pos``, which must end
    ``buf``: the datagram frame's body.

    Raises:
        CodecError: if the value at ``pos`` is not a message, is
            truncated or malformed, or bytes follow it.
    """
    try:
        if buf[pos] != 0x0E:
            raise CodecError(f"not a message (tag 0x{buf[pos]:02X})")
        message, end = _decode_message(buf, pos + 1)
    except IndexError:
        raise CodecError("truncated message") from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"malformed string: {exc}") from None
    if end != len(buf):
        raise CodecError(f"trailing bytes after message ({len(buf) - end})")
    return message


#: Name → class map over the SendableEvent subclass tree, rebuilt once on
#: a miss (classes defined after the first decode are still found).
_EVENT_CLASS_CACHE: dict[str, type] = {}


def resolve_event_class(name: str) -> type:
    """Resolve a wire event-class name against the SendableEvent tree.

    Unique ``__name__``s are the :class:`SendableEvent` wire contract;
    both the datagram frame header and embedded class references (tag
    ``0x10``) resolve through here.

    Raises:
        CodecError: for names matching no known sendable event class.
    """
    cls = _EVENT_CLASS_CACHE.get(name)
    if cls is None:
        from repro.kernel.events import SendableEvent
        _EVENT_CLASS_CACHE.clear()
        stack: list[type] = [SendableEvent]
        while stack:
            candidate = stack.pop()
            _EVENT_CLASS_CACHE[candidate.__name__] = candidate
            stack.extend(candidate.__subclasses__())
        cls = _EVENT_CLASS_CACHE.get(name)
        if cls is None:
            raise CodecError(f"unknown wire event class {name!r}")
    return cls


def decode_payload(blob: bytes) -> Any:
    """Decode one wire value; the whole blob must be consumed."""
    value, pos = _decode(blob, 0)
    if pos != len(blob):
        raise CodecError(f"trailing bytes after value ({len(blob) - pos})")
    return value


def decode_nested(value: Any) -> None:
    """Decode, now, every lazy :class:`~repro.kernel.message.WirePayload`
    nested in the decoded ``value`` (a retransmitted or relayed message's
    payload), so a malformed one raises here, where a receiver drops it,
    not in the layer that reads it later.  Each blob is still decoded once.

    Raises:
        CodecError: if a nested blob is not exactly one wire value.
    """
    stack = [value]
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind is dict:
            stack.extend(value)
            stack.extend(value.values())
        elif kind in _SEQ_TAGS:
            stack.extend(value)
        elif kind is _message.Message:
            stack.append(value._payload)
            cell = value._top
            while cell is not None:
                stack.append(cell.header)
                cell = cell.below
        elif kind is _message.WirePayload:
            stack.append(value.decoded())


# -- parity -------------------------------------------------------------------

def _assert_parity(obj: Any, blob: bytes) -> None:
    decoded, pos = _decode(blob, 0)
    if pos != len(blob) or decoded != obj:
        raise AssertionError(
            f"codec round-trip mismatch: {obj!r} -> {decoded!r}")
