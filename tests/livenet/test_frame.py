"""The datagram frame: round-trips and the adversarial-input contract.

Two properties carry the live wire:

* **round-trip** — ``decode_frame(encode_frame(p))`` rebuilds a packet
  whose every meta field and carried message equal the original's, for
  arbitrary payloads, header stacks, and every stack-deployable event
  class;
* **total safety** — every malformed datagram (truncation, garbage,
  single-byte corruption, oversize, bad magic, unknown version, unknown
  event class) raises :class:`CodecError` and nothing else.  The receive
  loop counts and drops on that one exception; any other escape would
  crash a live node.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import codec
from repro.kernel import message as message_module
from repro.kernel.codec import (CodecError, decode_payload, encode_payload,
                                resolve_event_class, wire_key_table)
from repro.kernel.message import Message, estimate_size
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
        src=src, dst=dst, port=draw(wire_text.filter(bool)),
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

class TestRoundTrip:
    @given(packet=packets())
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_packets_round_trip(self, packet):
        back = decode_frame(encode_frame(packet))
        assert back.src == packet.src
        assert back.dst == packet.dst
        assert back.port == packet.port
        assert back.event_cls is packet.event_cls
        assert back.logical_src == packet.logical_src
        assert back.traffic_class == packet.traffic_class
        assert back.message == packet.message
        assert back.message.headers == packet.message.headers

    @given(packet=packets())
    @settings(max_examples=100, deadline=None)
    def test_byte_charges_travel_verbatim(self, packet):
        """Counters on the receiver reproduce the sender's accounting."""
        back = decode_frame(encode_frame(packet))
        assert back.size_bytes == packet.size_bytes
        assert back.wire_bytes == packet.wire_bytes

    def test_multicast_siblings_share_one_frame_shape(self):
        packet = _reference_packet()
        clone = packet.copy_for("fixed-1")
        back = decode_frame(encode_frame(clone))
        assert back.dst == "fixed-1"
        assert back.size_bytes == packet.size_bytes


# -- byte charges of decoded messages ----------------------------------------

#: Every message kind the live backend carries: what the five conformance
#: scenarios send, plus the reliable layer's stability reports, which the
#: live workload sends once a store fills a report.
LIVE_VOCABULARY = frozenset({
    "ApplicationMessage", "ContextMessage", "CoreMessage",
    "HeartbeatMessage", "MembershipMessage", "NackMessage", "ParityMessage",
    "RetransmissionMessage", "StabilityMessage", "SyncMessage"})

#: Frames kept per message kind (the first ones sent).
_PER_KIND = 40


def _cell_charges(message: Message) -> list[int]:
    """``stack_bytes`` of every header cell, top → bottom."""
    charges = []
    node = message._top
    while node is not None:
        charges.append(node.stack_bytes)
        node = node.below
    return charges


@pytest.fixture(scope="module")
def live_vocabulary_frames():
    """``(kind, size_bytes, cell charges, payload charge, frame)`` of the
    first frames of each kind, encoded with codec parity on as the
    simulator sends them."""
    frames = []
    counts: dict[str, int] = {}
    route = sim_network.Network._route

    def capture(network, sender, packet, receivers, now):
        receivers = list(receivers)
        kind = packet.event_cls.__name__
        if receivers and counts.get(kind, 0) < _PER_KIND:
            counts[kind] = counts.get(kind, 0) + 1
            # The first datagram the live backend would send for it.
            dst = receivers[0]
            frame = encode_frame(packet if dst is packet.dst
                                 else packet.copy_for(dst))
            message = packet.message
            frames.append((kind, message.size_bytes, _cell_charges(message),
                           estimate_size(message._payload), frame))
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


class TestDecodedCharges:
    def test_every_live_kind_was_framed(self, live_vocabulary_frames):
        assert {kind for kind, *_ in live_vocabulary_frames} >= \
            LIVE_VOCABULARY

    def test_receiver_charges_equal_the_senders(self, live_vocabulary_frames):
        """The decoder's own charges rebuild the sender's accounting: the
        message, every header cell, and the payload, nested messages
        (retransmissions) included."""
        was_on = codec.PARITY
        codec.set_parity(True)
        try:
            for kind, size, cells, payload, frame in live_vocabulary_frames:
                back = decode_frame(frame).message
                assert back.size_bytes == size, kind
                assert _cell_charges(back) == cells, kind
                assert estimate_size(back.payload) == payload, kind
        finally:
            codec.set_parity(was_on)

    def test_decoding_walks_no_header_twice(self, live_vocabulary_frames,
                                            monkeypatch):
        """Header cells are charged from the decoding pass itself:
        ``estimate_size`` is not called while a frame is decoded."""
        calls = []
        estimate = message_module.estimate_size

        def counted(obj):
            calls.append(obj)
            return estimate(obj)

        monkeypatch.setattr(message_module, "estimate_size", counted)
        for kind, size, *_, frame in live_vocabulary_frames:
            assert decode_frame(frame).message.size_bytes == size, kind
        assert calls == []


# -- embedded class references (codec tag 0x10) -------------------------------

class TestClassReferences:
    def test_event_class_round_trips_to_identity(self):
        blob, charge = encode_payload(RetransmissionMessage)
        assert decode_payload(blob) is RetransmissionMessage
        assert charge == estimate_size(RetransmissionMessage)

    def test_class_inside_mapping_round_trips(self):
        """The retransmission-store shape that first hit the live wire."""
        snapshot = {"cls": ApplicationMessage, "seqno": 42}
        blob, _ = encode_payload(snapshot)
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
        decode_frame(data)
    except CodecError:
        pass


class TestMalformedFrames:
    def test_every_truncation_raises_codec_error(self):
        frame = encode_frame(_reference_packet())
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                decode_frame(frame[:cut])

    def test_bad_magic(self):
        frame = bytearray(encode_frame(_reference_packet()))
        frame[0] ^= 0xFF
        with pytest.raises(CodecError):
            decode_frame(bytes(frame))

    def test_unknown_version(self):
        frame = bytearray(encode_frame(_reference_packet()))
        frame[1] = FRAME_VERSION + 1
        with pytest.raises(CodecError):
            decode_frame(bytes(frame))

    def test_oversized_datagram_rejected_on_decode(self):
        with pytest.raises(CodecError):
            decode_frame(bytes([FRAME_MAGIC, FRAME_VERSION]) +
                         b"\x00" * MAX_DATAGRAM_BYTES)

    def test_oversized_payload_rejected_on_encode(self):
        packet = Packet(src="a", dst="b", port="data",
                        event_cls=ApplicationMessage,
                        message=Message(payload=b"x" * (MAX_DATAGRAM_BYTES)))
        with pytest.raises(CodecError):
            encode_frame(packet)

    def test_unknown_event_class_name(self):
        """A structurally valid frame naming a class we never deployed."""
        packet = _reference_packet()
        meta = (packet.src, packet.logical_src, packet.port,
                "NoSuchEventClass", packet.dst, packet.traffic_class,
                packet.size_bytes, packet.wire_bytes)
        meta_blob, _ = encode_payload(meta)
        body_blob, _ = encode_payload(packet.message)
        out = bytearray((FRAME_MAGIC, FRAME_VERSION))
        codec._append_varint(out, len(meta_blob))
        out += meta_blob + body_blob
        with pytest.raises(CodecError):
            decode_frame(bytes(out))

    def test_wrong_meta_shape(self):
        meta_blob, _ = encode_payload(("just", "three", "fields"))
        body_blob, _ = encode_payload(Message(payload=b""))
        out = bytearray((FRAME_MAGIC, FRAME_VERSION))
        codec._append_varint(out, len(meta_blob))
        out += meta_blob + body_blob
        with pytest.raises(CodecError):
            decode_frame(bytes(out))

    def test_body_must_be_a_message(self):
        packet = _reference_packet()
        meta = (packet.src, packet.logical_src, packet.port,
                packet.event_cls.__name__, packet.dst, packet.traffic_class,
                packet.size_bytes, packet.wire_bytes)
        meta_blob, _ = encode_payload(meta)
        body_blob, _ = encode_payload({"not": "a message"})
        out = bytearray((FRAME_MAGIC, FRAME_VERSION))
        codec._append_varint(out, len(meta_blob))
        out += meta_blob + body_blob
        with pytest.raises(CodecError):
            decode_frame(bytes(out))

    @given(data=st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_garbage_never_raises_anything_but_codec_error(self, data):
        _assert_only_codec_error(data)

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
