"""The datagram frame: round-trips, sizes and the adversarial-input contract.

Three properties carry the live wire:

* **round-trip** — ``decode_frame(encode_frame(p), receiver)`` rebuilds a
  packet addressed to ``receiver`` (the socket is the address: ``dst`` is
  not on the wire) whose every other field and carried message equal the
  original's, for arbitrary payloads, header stacks, and every
  stack-deployable event class;
* **the datagram is the charge** — for every event class the spine
  stacks send, the frame's body is exactly ``p.message.size_bytes``
  bytes, and the receiver rebuilds the sender's ``size_bytes`` from the
  message, with no size on the wire;
* **total safety** — every malformed datagram (truncation, garbage,
  single-byte corruption, oversize, bad magic, an unknown version or a
  version-1 or version-2 frame, a bad varint, too few or too many names, trailing
  bytes, an unknown event class) raises :class:`CodecError` and nothing
  else.  The receive loop counts and drops on that one exception; any
  other escape would crash a live node.  A name holding the separator
  (NUL) cannot be framed: the sender raises.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import codec
from repro.kernel.codec import (CodecError, decode_payload, encode_payload,
                                resolve_event_class, wire_key_table)
from repro.kernel.message import Message
from repro.kernel.packet import CONTROL, DATA, Packet
from repro.livenet.conformance import CONFORMANCE_CASES
from repro.livenet.frame import (FRAME_MAGIC, FRAME_VERSION,
                                 MAX_DATAGRAM_BYTES, decode_frame,
                                 encode_frame)
from repro.protocols.events import (ApplicationMessage, CoreMessage,
                                    HeartbeatMessage, MembershipMessage,
                                    NackMessage, RetransmissionMessage)
from repro.protocols.reliable import _STABILITY_REPORT_EVERY
from repro.scenarios.runner import ScenarioRunner
from repro.simnet import network as sim_network
from tests.protocols.helpers import build_world, collector_of

# -- strategies ---------------------------------------------------------------

EVENT_CLASSES = (ApplicationMessage, HeartbeatMessage, MembershipMessage,
                 NackMessage, RetransmissionMessage, CoreMessage)

node_ids = st.sampled_from(
    ["fixed-0", "fixed-1", "mobile-0", "mobile-1", "commuter", "n/0"])
wire_text = st.one_of(st.text(max_size=12),
                      st.sampled_from(sorted(wire_key_table())))
scalars = st.one_of(st.none(), st.booleans(),
                    st.integers(-(2 ** 40), 2 ** 40),
                    st.floats(allow_nan=False), wire_text,
                    st.binary(max_size=24))
payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(wire_text, children, max_size=4),
    ),
    max_leaves=12,
)
header_stacks = st.lists(st.one_of(
    wire_text,
    st.tuples(wire_text, st.integers(0, 999)),
    st.dictionaries(wire_text, st.integers(), max_size=3),
), max_size=4)


@st.composite
def packets(draw):
    src = draw(node_ids)
    multicast = draw(st.booleans())
    dst = (tuple(draw(st.lists(node_ids, min_size=1, max_size=3,
                               unique=True)))
           if multicast else draw(node_ids))
    message = Message(payload=draw(payloads), headers=draw(header_stacks))
    return Packet(
        src=src, dst=dst,
        port=draw(wire_text.filter(lambda text: text and "\0" not in text)),
        event_cls=draw(st.sampled_from(EVENT_CLASSES)), message=message,
        logical_src=draw(st.one_of(st.none(), node_ids)),
        traffic_class=draw(st.sampled_from([DATA, CONTROL])))


def _reference_packet() -> Packet:
    """A fixed non-trivial frame for the deterministic corruption tests."""
    message = Message(payload={"seqno": 7, "text": "hello"},
                      headers=[("rel", 7), "membership"])
    return Packet(src="fixed-0", dst=("fixed-1", "mobile-0"), port="data#c1",
                  event_cls=ApplicationMessage, message=message,
                  logical_src="commuter", traffic_class=DATA)


# -- round-trips --------------------------------------------------------------

def receiver_of(packet: Packet) -> str:
    """The node a datagram of ``packet`` arrives at."""
    return packet.dst[-1] if isinstance(packet.dst, tuple) else packet.dst


class TestRoundTrip:
    @given(packet=packets())
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_packets_round_trip(self, packet):
        back = decode_frame(encode_frame(packet), receiver_of(packet))
        assert back.src == packet.src
        assert back.dst == receiver_of(packet)
        assert back.port == packet.port
        assert back.event_cls is packet.event_cls
        assert back.logical_src == packet.logical_src
        assert back.traffic_class == packet.traffic_class
        assert back.message == packet.message
        assert back.message.headers == packet.message.headers

    @given(packet=packets())
    @settings(max_examples=100, deadline=None)
    def test_the_receiver_recomputes_the_senders_size(self, packet):
        """Counters on the receiver reproduce the sender's accounting."""
        back = decode_frame(encode_frame(packet), receiver_of(packet))
        assert back.size_bytes == packet.size_bytes
        assert back.message.size_bytes == packet.message.size_bytes

    def test_every_receiver_of_a_request_gets_the_same_frame(self):
        packet = _reference_packet()
        frame = encode_frame(packet)
        for member in packet.dst:
            # The frame holds no destination: a record of the request
            # addressed to the member alone frames to the same bytes.
            assert encode_frame(replace(packet, dst=member)) == frame
            back = decode_frame(frame, member)
            assert back.dst == member
            assert back.size_bytes == packet.size_bytes
            assert back.message == packet.message


# -- the datagram is the charge ------------------------------------------------

#: Every message kind the live backend carries: what the five conformance
#: scenarios send, plus the reliable layer's stability reports, which the
#: live workload sends once a store fills a report.
LIVE_VOCABULARY = frozenset({
    "ApplicationMessage", "ContextMessage", "CoreMessage",
    "HeartbeatMessage", "MembershipMessage", "NackMessage", "ParityMessage",
    "RetransmissionMessage", "StabilityMessage", "SyncMessage"})

#: The event class of each sender on the spine stacks.
SCOREBOARD = {
    "chat": "ApplicationMessage",
    "reliable-nack": "NackMessage",
    "reliable-retransmission": "RetransmissionMessage",
    "reliable-stability": "StabilityMessage",
    "heartbeat-beacon": "HeartbeatMessage",
    "membership": "MembershipMessage",
    "cocaditem-snapshot": "ContextMessage",
    "core": "CoreMessage",
    "fec-parity": "ParityMessage",
}

#: Frames kept per message kind (the first ones sent).
_PER_KIND = 40


@pytest.fixture(scope="module")
def live_vocabulary_frames():
    """``kind -> [(size_bytes, message size_bytes, names, body, frame,
    receiver)]`` of the first packets of each kind as the simulator sends
    them (with codec parity on), taken before any receiver pops a header
    off the packet's message."""
    frames: dict[str, list] = {}
    route = sim_network.Network._route

    def capture(network, sender, packet, receivers, now):
        receivers = list(receivers)
        kept = frames.setdefault(packet.event_cls.__name__, [])
        if receivers and len(kept) < _PER_KIND:
            # The datagram the live backend would send for it.
            kept.append((packet.size_bytes, packet.message.size_bytes,
                         "\0".join(_names(packet)).encode("utf-8"),
                         encode_payload(packet.message),
                         encode_frame(packet), receivers[0]))
        route(network, sender, packet, receivers, now)

    was_on = codec.PARITY
    codec.set_parity(True)
    sim_network.Network._route = capture
    try:
        for case in CONFORMANCE_CASES:
            ScenarioRunner(case.build(), seed=0).run()
        # A store that fills a stability report: one sender, one report's
        # worth of messages and a few more.
        engine, _, channels = build_world({"a": "fixed", "b": "fixed"},
                                          heartbeat_interval=2.0)
        engine.run_until(0.5)
        for k in range(_STABILITY_REPORT_EVERY + 8):
            collector_of(channels["a"]).send_text(f"a:{k}")
        engine.run_until(3.0)
    finally:
        sim_network.Network._route = route
        codec.set_parity(was_on)
    return frames


class TestTheDatagramIsTheCharge:
    def test_every_live_kind_was_framed(self, live_vocabulary_frames):
        assert set(live_vocabulary_frames) >= LIVE_VOCABULARY

    @pytest.mark.parametrize("kind", SCOREBOARD.values(),
                             ids=SCOREBOARD.keys())
    def test_the_body_is_the_message_size(self, live_vocabulary_frames,
                                          kind):
        """The frame is its magic, version, names and the message's
        ``size_bytes`` bytes of body; the receiver gets the sender's size
        back from the message alone."""
        assert live_vocabulary_frames.get(kind), kind
        for size, message_size, names, body, frame, receiver in \
                live_vocabulary_frames[kind]:
            assert len(body) == message_size
            header = bytearray((FRAME_MAGIC, FRAME_VERSION))
            codec._append_varint(header, len(names))
            assert frame == bytes(header) + names + body  # no size in it
            back = decode_frame(frame, receiver)
            assert back.size_bytes == size
            assert back.message.size_bytes == message_size

    def test_decoding_encodes_nothing(self, live_vocabulary_frames,
                                      monkeypatch):
        """The receiver's sizes come from the decoding pass itself: no
        header and no payload is encoded while a frame is decoded."""
        calls = []

        def counted(original):
            def count(value):
                calls.append(value)
                return original(value)
            return count

        monkeypatch.setattr(codec, "encode_payload",
                            counted(codec.encode_payload))
        monkeypatch.setattr(codec, "encode_header",
                            counted(codec.encode_header))
        for kept in live_vocabulary_frames.values():
            for size, *_, frame, receiver in kept:
                assert decode_frame(frame, receiver).size_bytes == size
        assert calls == []


# -- embedded class references (codec tag 0x10) -------------------------------

class TestClassReferences:
    def test_event_class_round_trips_to_identity(self):
        blob = encode_payload(RetransmissionMessage)
        assert decode_payload(blob) is RetransmissionMessage

    def test_class_inside_mapping_round_trips(self):
        """The retransmission-store shape that first hit the live wire."""
        snapshot = {"cls": ApplicationMessage, "seqno": 42}
        blob = encode_payload(snapshot)
        back = decode_payload(blob)
        assert back["cls"] is ApplicationMessage
        assert back["seqno"] == 42

    def test_non_event_class_is_rejected(self):
        with pytest.raises(CodecError):
            encode_payload(dict)

    def test_unknown_class_name_is_rejected(self):
        with pytest.raises(CodecError):
            resolve_event_class("NoSuchEventClass")


# -- adversarial inputs -------------------------------------------------------

def _assert_only_codec_error(data: bytes) -> None:
    try:
        decode_frame(data, "fixed-1")
    except CodecError:
        pass


def _names(packet: Packet) -> list[str]:
    return [packet.src, packet.logical_src, packet.port,
            packet.event_cls.__name__, packet.traffic_class]


def _raw_frame(names, body: bytes, version: int = FRAME_VERSION) -> bytes:
    """A frame laid out by hand: any names, any body, any version."""
    encoded = "\0".join(names).encode("utf-8")
    out = bytearray((FRAME_MAGIC, version))
    codec._append_varint(out, len(encoded))
    return bytes(out + encoded) + body


def _body(packet: Packet) -> bytes:
    return encode_payload(packet.message)


def malformed_payload_frame(text: str = "hello") -> bytes:
    """A real chat frame whose payload dict's tag byte is ``0x1F``: the
    frame around it, the names and every length still well-formed."""
    message = Message(payload={"kind": "chat", "text": text}).wire_copy()
    frame = bytearray(encode_frame(Packet(
        src="tx", dst="rx", port="data", event_cls=ApplicationMessage,
        message=message)))
    at = bytes(frame).index(message._payload.blob)
    assert frame[at] == 0x0D  # the dict tag
    frame[at] = 0x1F
    return bytes(frame)


def retransmission_frame(text: str, corrupt: bool = False) -> bytes:
    """A chat frame carrying ``{"kind": "retransmit", "msg": inner}``, the
    inner message's payload re-embedded as its own blob (tag ``0x0F``);
    with ``corrupt``, that blob's dict tag byte is ``0x1F``."""
    inner = Message(payload={"kind": "chat", "text": text}).wire_copy()
    outer = Message(payload={"kind": "retransmit", "msg": inner})
    frame = bytearray(encode_frame(Packet(
        src="tx", dst="rx", port="data", event_cls=ApplicationMessage,
        message=outer.wire_copy())))
    if corrupt:
        at = bytes(frame).index(inner._payload.blob)
        assert frame[at] == 0x0D  # the inner dict tag
        frame[at] = 0x1F
    return bytes(frame)


class TestMalformedFrames:
    def test_a_malformed_payload_fails_the_frame(self):
        """The payload is decoded in the frame's pass, so no layer that
        reads it later can raise."""
        with pytest.raises(CodecError, match="unknown wire tag 0x1F"):
            decode_frame(malformed_payload_frame(), "rx")

    def test_a_malformed_nested_payload_fails_the_frame(self):
        """So is every payload nested in it: a retransmitted message's
        payload that does not decode fails the frame, not the reader."""
        packet = decode_frame(retransmission_frame("ok"), "rx")
        inner = packet.message.payload["msg"]
        assert inner._payload._decoded == {"kind": "chat", "text": "ok"}
        with pytest.raises(CodecError, match="unknown wire tag 0x1F"):
            decode_frame(retransmission_frame("bad", corrupt=True), "rx")

    def test_a_nested_blob_under_an_unframed_payload_fails_the_frame(self):
        """A body whose payload is not itself a blob (no sender frames one
        so) can still nest one: its only 0x0F byte is that nested tag."""
        inner = Message(payload={"kind": "chat"}).wire_copy()
        payload = bytearray(encode_payload({"msg": inner}))
        at = bytes(payload).index(inner._payload.blob)
        payload[at] = 0x1F
        body = b"\x0e\x00" + bytes(payload)  # no headers, a bare dict
        assert body.count(0x0F) == 1
        with pytest.raises(CodecError, match="unknown wire tag 0x1F"):
            decode_frame(_raw_frame(_names(_reference_packet()), body),
                         "fixed-1")

    def test_the_hand_laid_frame_is_a_valid_one(self):
        """The layout the cases below corrupt decodes when left intact."""
        packet = _reference_packet()
        back = decode_frame(_raw_frame(_names(packet), _body(packet)),
                            "fixed-1")
        assert back.port == packet.port
        assert back.message == packet.message

    def test_every_truncation_raises_codec_error(self):
        frame = encode_frame(_reference_packet())
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                decode_frame(frame[:cut], "fixed-1")

    def test_bad_magic(self):
        frame = bytearray(encode_frame(_reference_packet()))
        frame[0] ^= 0xFF
        with pytest.raises(CodecError):
            decode_frame(bytes(frame), "fixed-1")

    def test_unknown_version(self):
        frame = bytearray(encode_frame(_reference_packet()))
        frame[1] = FRAME_VERSION + 1
        with pytest.raises(CodecError):
            decode_frame(bytes(frame), "fixed-1")

    def test_a_version_1_frame_is_an_unknown_version(self):
        """The layout before the socket became the address: a codec meta
        tuple holding ``dst``, then the body."""
        packet = _reference_packet()
        meta_blob = encode_payload(
            (packet.src, packet.logical_src, packet.port,
             packet.event_cls.__name__, packet.dst, packet.traffic_class,
             packet.size_bytes, packet.size_bytes))
        out = bytearray((FRAME_MAGIC, 1))
        codec._append_varint(out, len(meta_blob))
        with pytest.raises(CodecError, match="version 1"):
            decode_frame(bytes(out) + meta_blob + _body(packet), "fixed-1")

    def test_a_version_2_frame_is_an_unknown_version(self):
        """The layout that carried two sizes ahead of the names."""
        packet = _reference_packet()
        encoded = "\0".join(_names(packet)).encode("utf-8")
        out = bytearray((FRAME_MAGIC, 2))
        codec._append_varint(out, packet.size_bytes)
        codec._append_varint(out, packet.size_bytes)
        codec._append_varint(out, len(encoded))
        with pytest.raises(CodecError, match="version 2"):
            decode_frame(bytes(out) + encoded + _body(packet), "fixed-1")

    def test_oversized_datagram_rejected_on_decode(self):
        with pytest.raises(CodecError):
            decode_frame(bytes([FRAME_MAGIC, FRAME_VERSION]) +
                         b"\x00" * MAX_DATAGRAM_BYTES, "fixed-1")

    def test_oversized_payload_rejected_on_encode(self):
        packet = Packet(src="a", dst="b", port="data",
                        event_cls=ApplicationMessage,
                        message=Message(payload=b"x" * (MAX_DATAGRAM_BYTES)))
        with pytest.raises(CodecError):
            encode_frame(packet)

    def test_a_bad_varint(self):
        """A names-length varint whose continuation bit never ends."""
        with pytest.raises(CodecError):
            decode_frame(bytes([FRAME_MAGIC, FRAME_VERSION]) + b"\xff" * 40,
                         "fixed-1")

    def test_truncated_names(self):
        packet = _reference_packet()
        encoded = "\0".join(_names(packet)).encode("utf-8")
        out = bytearray((FRAME_MAGIC, FRAME_VERSION))
        codec._append_varint(out, len(encoded) + 40)  # more than present
        with pytest.raises(CodecError, match="truncated frame names"):
            decode_frame(bytes(out + encoded), "fixed-1")

    @pytest.mark.parametrize("count", [4, 6])
    def test_four_or_six_names(self, count):
        packet = _reference_packet()
        names = (_names(packet) + ["extra"])[:count]
        with pytest.raises(CodecError, match=f"carries {count} names"):
            decode_frame(_raw_frame(names, _body(packet)), "fixed-1")

    def test_names_that_are_not_utf8(self):
        packet = _reference_packet()
        out = bytearray((FRAME_MAGIC, FRAME_VERSION, 6))
        out += b"\xff\xfe\0\0\0\0"
        with pytest.raises(CodecError):
            decode_frame(bytes(out) + _body(packet), "fixed-1")

    def test_trailing_bytes(self):
        frame = encode_frame(_reference_packet())
        with pytest.raises(CodecError, match="trailing"):
            decode_frame(frame + b"\x00", "fixed-1")

    def test_unknown_event_class_name(self):
        """A structurally valid frame naming a class we never deployed."""
        packet = _reference_packet()
        names = _names(packet)
        names[3] = "NoSuchEventClass"
        with pytest.raises(CodecError, match="NoSuchEventClass"):
            decode_frame(_raw_frame(names, _body(packet)), "fixed-1")

    def test_body_must_be_a_message(self):
        packet = _reference_packet()
        body_blob = encode_payload({"not": "a message"})
        with pytest.raises(CodecError, match="not a message"):
            decode_frame(_raw_frame(_names(packet), body_blob), "fixed-1")

    @pytest.mark.parametrize("field", ["src", "logical_src", "port",
                                       "traffic_class"])
    def test_a_nul_in_a_name_raises_at_the_sender(self, field):
        packet = _reference_packet()
        setattr(packet, field, getattr(packet, field) + "\0x")
        with pytest.raises(CodecError, match="NUL"):
            encode_frame(packet)

    @given(data=st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_garbage_never_raises_anything_but_codec_error(self, data):
        _assert_only_codec_error(data)

    @given(data=st.binary(max_size=96))
    @settings(max_examples=300, deadline=None)
    def test_garbage_after_a_valid_header_is_contained(self, data):
        """Arbitrary bytes behind a well-formed magic, version and
        names: only the body decoder sees them."""
        names = _names(_reference_packet())
        _assert_only_codec_error(_raw_frame(names, data))

    @given(position=st.integers(min_value=0),
           flip=st.integers(min_value=1, max_value=255))
    @settings(max_examples=300, deadline=None)
    def test_single_byte_corruption_is_contained(self, position, flip):
        """Flip one byte anywhere in a valid frame: decode either still
        succeeds (the flip hit redundant slack such as an unused varint
        range) or raises CodecError — never any other exception."""
        frame = bytearray(encode_frame(_reference_packet()))
        frame[position % len(frame)] ^= flip
        _assert_only_codec_error(bytes(frame))
