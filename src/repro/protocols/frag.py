"""Fragmentation and reassembly (the Appia suite's FRAG protocol).

Sits directly above the transport layer.  Outgoing messages larger than the
configured MTU are serialized and split into fragment packets; receivers
reassemble and re-inject the original, correctly-typed event.  Fragments of
one message share a deterministic id ``(sender, counter)``; incomplete
reassemblies are dropped after a timeout (the layers above — reliable,
FEC — treat a dropped oversized message like any other loss and recover).

The oversized event travels as one codec value (:mod:`repro.kernel.codec`),
the tuple ``(event class, message, source)``: a class reference (tag
``0x10``) and the message's wire form (tag ``0x0E``).  A reassembled blob
that is not exactly that shape is dropped and counted in
``undecodable_dropped``, never raised into the stack, and so is a
fragment whose fields are not of the shape and range this layer sends.
A message that needs more than :data:`MAX_FRAGMENTS` fragments raises
``ValueError`` at the sender.

Every fragment fits the MTU: a message of at most ``mtu`` bytes
(``Message.size_bytes``, its encoded length) passes whole, and each chunk
is sized from its fragment's own framing, so every fragment's message is
at most ``mtu`` bytes too.  An ``mtu`` that cannot hold a fragment's
framing plus one byte of chunk raises ``ValueError``.

Counting note: each fragment is one NIC transmission, so a 3-fragment chat
message counts as 3 messages in the Figure 3 metric — exactly what a real
packet counter on the device would report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel import codec
from repro.kernel.events import Direction, Event, SendableEvent, TimerEvent
from repro.kernel.layer import Layer
from repro.kernel.message import Message
from repro.kernel.registry import register_layer
from repro.protocols.base import GroupSession
from repro.protocols.events import GroupSendableEvent

_SWEEP_TIMER = "frag-sweep"

#: Most fragments a receiver reassembles into one message (about 1.3 MB
#: at the default MTU).
MAX_FRAGMENTS = 1024


class FragmentEvent(SendableEvent):
    """One fragment of an oversized message."""

    traffic_class = "control"


@dataclass
class _Reassembly:
    total: int
    chunks: dict[int, bytes] = field(default_factory=dict)
    first_seen: float = 0.0


class FragmentationSession(GroupSession):
    """MTU enforcement and reassembly buffers."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.mtu: int = int(layer.params.get("mtu", 1400))
        self.reassembly_timeout: float = float(
            layer.params.get("reassembly_timeout", 10.0))
        if _fragment_size("", 1, 1, 1) > self.mtu:
            raise ValueError(f"mtu too small: {self.mtu}")
        self._counter = 0
        self._buffers: dict[tuple[str, int], _Reassembly] = {}
        self._sweep_handle = None
        #: Diagnostics.
        self.fragmented_count = 0
        self.reassembled_count = 0
        self.expired_count = 0
        #: Reassembled blobs that were not one well-formed event, and
        #: fragments of the wrong shape.
        self.undecodable_dropped = 0

    def on_channel_init(self, event: Event) -> None:
        """Deliberately arms nothing.

        The reassembly sweep is armed on demand — on the first incomplete
        reassembly — and stops itself once the table drains (the
        reliable-layer pattern), so an idle channel costs zero timer
        events.  The seed revision ticked every ``reassembly_timeout/2``
        for the channel's lifetime whether or not any fragment was ever
        in flight.
        """

    def _ensure_sweep(self, channel) -> None:
        self._sweep_handle = self.arm_on_demand(
            self._sweep_handle, max(self.reassembly_timeout / 2, 0.5),
            _SWEEP_TIMER, channel)

    def _stop_sweep(self) -> None:
        self._sweep_handle = self.stop_timer(self._sweep_handle)

    def on_event(self, event: Event) -> None:
        if isinstance(event, TimerEvent):
            if event.tag == _SWEEP_TIMER:
                self._sweep(event.channel)
                if not self._buffers:
                    self._stop_sweep()
            return
        if isinstance(event, FragmentEvent):
            if event.direction is Direction.UP:
                self._absorb_fragment(event)
            else:
                event.go()
            return
        if isinstance(event, SendableEvent) and \
                event.direction is Direction.DOWN and \
                event.message.size_bytes > self.mtu:
            self._fragment(event)
            return
        event.go()

    # -- sending -----------------------------------------------------------

    def _fragment(self, event: SendableEvent) -> None:
        assert self.local is not None, "frag used before ChannelInit"
        blob = codec.encode_payload(
            (type(event), event.message, event.source))
        frag_id = self._counter + 1
        # The chunk room shrinks as the count grows past a one-byte int,
        # so settle the count first (a round or two).
        total = 1
        while True:
            chunk_size = self._chunk_room(frag_id, total)
            needed = -(-len(blob) // chunk_size)
            if needed <= total:
                break
            total = needed
        if needed > MAX_FRAGMENTS:
            raise ValueError(
                f"a {len(blob)}-byte message needs {needed} fragments "
                f"at mtu {self.mtu}; receivers reassemble {MAX_FRAGMENTS}")
        self._counter = frag_id
        self.fragmented_count += 1
        for index in range(needed):
            chunk = blob[index * chunk_size:(index + 1) * chunk_size]
            fragment = FragmentEvent(
                message=Message(payload=_fragment_payload(
                    self.local, frag_id, index, needed, chunk)),
                source=self.local, dest=event.dest)
            self.send_down(fragment, channel=event.channel)

    def _chunk_room(self, frag_id: int, total: int) -> int:
        """The longest chunk whose fragment — at any index of ``total`` —
        is at most ``mtu`` bytes."""
        room = self.mtu - _fragment_size(self.local, frag_id, total, 0)
        # The length varints may grow with the chunk: a few steps back.
        while room > 0 and \
                _fragment_size(self.local, frag_id, total, room) > self.mtu:
            room -= 1
        if room < 1:
            raise ValueError(f"mtu too small for {self.local}'s fragments: "
                             f"{self.mtu}")
        return room

    # -- receiving -----------------------------------------------------------

    def _absorb_fragment(self, event: FragmentEvent) -> None:
        payload = event.message.payload
        if not _is_fragment(payload):
            self.undecodable_dropped += 1
            return
        key = (payload["origin"], payload["frag_id"])
        total = payload["total"]
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = _Reassembly(total=total,
                                 first_seen=event.channel.kernel.clock.now())
            self._buffers[key] = buffer
            self._ensure_sweep(event.channel)  # first live reassembly
        elif buffer.total != total:
            self.undecodable_dropped += 1  # not a fragment of this message
            return
        buffer.chunks[payload["index"]] = payload["chunk"]
        if len(buffer.chunks) < buffer.total:
            return
        del self._buffers[key]
        blob = b"".join(buffer.chunks[index]
                        for index in range(buffer.total))
        try:
            value = codec.decode_payload(blob)
            codec.decode_nested(value)
        except codec.CodecError:
            value = None
        if not (type(value) is tuple and len(value) == 3 and
                isinstance(value[0], type) and
                type(value[1]) is Message):
            self.undecodable_dropped += 1
            return
        cls, message, source = value
        original = cls(message=message, source=source, dest=self.local)
        self.reassembled_count += 1
        self.send_up(original, channel=event.channel)

    def _sweep(self, channel) -> None:
        now = channel.kernel.clock.now()
        for key, buffer in list(self._buffers.items()):
            if now - buffer.first_seen > self.reassembly_timeout:
                del self._buffers[key]
                self.expired_count += 1


def _fragment_payload(origin: str, frag_id: int, index: int, total: int,
                      chunk: bytes) -> dict:
    return {"origin": origin, "frag_id": frag_id, "index": index,
            "total": total, "chunk": chunk}


def _fragment_size(origin: str, frag_id: int, total: int,
                   chunk_len: int) -> int:
    """``size_bytes`` of the last fragment of ``total`` carrying
    ``chunk_len`` bytes: no fragment of them is longer, as an int encodes
    no shorter when it grows."""
    return Message(payload=_fragment_payload(
        origin, frag_id, total - 1, total, bytes(chunk_len))).size_bytes


def _is_fragment(payload) -> bool:
    """Whether ``payload`` is a fragment dict as
    :meth:`FragmentationSession._fragment` builds it."""
    if type(payload) is not dict:
        return False
    total = payload.get("total")
    index = payload.get("index")
    return (type(payload.get("origin")) is str and
            type(payload.get("frag_id")) is int and
            type(total) is int and 1 <= total <= MAX_FRAGMENTS and
            type(index) is int and 0 <= index < total and
            type(payload.get("chunk")) is bytes)


@register_layer
class FragmentationLayer(Layer):
    """Splits oversized messages into MTU-sized fragments.

    Parameters: ``mtu`` (bytes, default 1400), ``reassembly_timeout``
    (seconds before abandoning an incomplete message).
    """

    layer_name = "frag"
    accepted_events = (SendableEvent, TimerEvent)
    provided_events = (FragmentEvent,)
    session_class = FragmentationSession
