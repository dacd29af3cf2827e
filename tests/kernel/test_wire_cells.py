"""Header cells own their wire form: encoded once, measured by arithmetic.

Three contracts under test:

* **arithmetic equals encoding** — ``Message.size_bytes`` (O(1) over the
  cells' cumulative lengths) is the length ``encode_payload`` produces,
  over random header stacks, nested messages and relayed (already frozen)
  payloads, before and after the payload is frozen; a header outside the
  wire format is refused when it is pushed;
* **a fan-out encodes once** — a real Mecho group send through
  ``DatagramTransportSession`` runs the codec the same number of times
  for 4 members as for 16, wired sender and wireless-via-relay alike;
* **the datagram is unchanged** — ``encode_frame`` puts the bytes on the
  socket that a fresh header-by-header traversal would, whether the cells
  were pushed locally or came off the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Message, codec
from repro.kernel.codec import CodecError, decode_payload, encode_payload
from repro.kernel.message import WirePayload
from repro.kernel.packet import Packet
from repro.livenet.frame import (FRAME_MAGIC, FRAME_VERSION, decode_frame,
                                 encode_frame)
from repro.protocols import ApplicationMessage, MechoLayer
from repro.simnet.node import NodeKind
from tests.kernel.test_codec import header_stacks, wire_values
from tests.livenet.helpers import offline_live_network
from tests.protocols.helpers import (build_group_stack, build_world,
                                     collector_of)


@dataclass(frozen=True)
class ExoticHeader:
    """A header outside the wire format."""

    tag: int = 11


def traversed(message: Message) -> bytes:
    """Reference wire form of a frozen message: every header re-encoded on
    its own, bottom → top, as the codec did before cells kept their bytes."""
    headers = message.headers
    out = bytearray((0x0E,))
    codec._append_varint(out, len(headers))
    for header in headers:
        out += encode_payload(header)
    out += encode_payload(message._payload)
    return bytes(out)


# -- arithmetic equals encoding -----------------------------------------------

nested_payloads = st.one_of(
    wire_values,
    st.builds(lambda payload, headers: Message(payload, headers=headers),
              wire_values, header_stacks),
    st.builds(lambda payload, headers: {
        "msg": Message(payload, headers=headers), "seqno": 3},
        wire_values, header_stacks),
)


class TestSizeBytesArithmetic:
    @given(payload=nested_payloads, headers=header_stacks,
           pops=st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_size_bytes_is_the_encoded_length(self, payload, headers, pops):
        message = Message(payload, headers=headers)
        unfrozen = message.size_bytes  # freezes through the family cache
        frozen = message.wire_copy()
        assert frozen.size_bytes == unfrozen
        assert frozen._payload is message._wire_cache[0]  # one encode
        for _ in range(min(pops, len(headers))):
            frozen.pop_header()
        blob = encode_payload(frozen)
        assert frozen.size_bytes == len(blob)
        assert blob == traversed(frozen)

    @given(payload=wire_values, headers=header_stacks,
           relay_header=st.tuples(st.just("mecho"), st.just("relayed"),
                                  st.text(max_size=8)))
    @settings(max_examples=200, deadline=None)
    def test_relayed_message_reuses_the_cells_it_arrived_with(
            self, payload, headers, relay_header):
        blob = encode_payload(Message(payload, headers=headers).wire_copy())
        arrived = decode_payload(blob)
        assert type(arrived._payload) is WirePayload
        assert arrived.size_bytes == len(blob)
        assert encode_payload(arrived) == blob  # forwarded byte for byte
        if headers:
            arrived.pop_header()
        arrived.push_header(relay_header)
        relayed = arrived.wire_copy()
        again = encode_payload(relayed)
        assert relayed.size_bytes == len(again)
        assert again == traversed(relayed)

    @given(payload=wire_values, headers=header_stacks)
    @settings(max_examples=100, deadline=None)
    def test_unencodable_header_is_refused_at_push(self, payload, headers):
        message = Message(payload, headers=headers)
        with pytest.raises(CodecError):
            message.push_header(ExoticHeader())
        # The refused header left no cell: the stack and its size are
        # those of the encodable headers alone.
        assert message.headers == headers
        assert message.size_bytes == len(
            encode_payload(Message(payload, headers=headers)))

    def test_exotic_header_is_refused_by_the_cell_encoder(self):
        with pytest.raises(CodecError):
            codec.encode_header(ExoticHeader(tag=40))
        assert codec.encode_header(("rm", "n0", 7, 3)) == \
            encode_payload(("rm", "n0", 7, 3))


class TestOutsideTheWireFormat:
    @pytest.mark.parametrize("backend", ["simulator", "live"])
    def test_a_payload_outside_the_format_raises_at_the_sender(self,
                                                                backend):
        """Both backends refuse it in the sender's transport, before any
        packet exists: no fallback sends it on the simulator, and the live
        network never sees a frame to fail."""
        if backend == "simulator":
            engine, network, channels = build_world(
                {"a": "fixed", "b": "fixed"})
            engine.run_until(1.0)
            sent = network.stats_of("a").sent_total
        else:
            network, source, frames = offline_live_network(
                {"a": NodeKind.FIXED, "b": NodeKind.FIXED})
            channels = {node_id: build_group_stack(network, node_id,
                                                   ("a", "b"))
                        for node_id in ("a", "b")}
            source.advance(1.0)
            network.engine.poll()
            sent = len(frames)
        with pytest.raises(CodecError, match="ExoticHeader"):
            collector_of(channels["a"]).send_text(ExoticHeader())
        if backend == "simulator":
            assert network.stats_of("a").sent_total == sent
        else:
            assert len(frames) == sent
            assert network.encode_errors == 0


# -- a fan-out encodes once ---------------------------------------------------

def mecho_world(members: int):
    """A relay, a second wired node and ``members - 2`` mobiles on Mecho,
    background traffic parked far beyond the observed window."""
    specs = {"fixed-0": "fixed", "fixed-1": "fixed"}
    for index in range(members - 2):
        specs[f"mobile-{index:02d}"] = "mobile"
    members_csv = ",".join(sorted(specs))

    def dissemination_for(node_id: str) -> MechoLayer:
        mode = "wired" if specs[node_id] == "fixed" else "wireless"
        return MechoLayer(mode=mode, relay="fixed-0", members=members_csv,
                          relay_timeout=600.0)

    return build_world(specs, dissemination_factory=dissemination_for,
                       heartbeat_interval=600.0, nack_interval=600.0)


def codec_runs_for_one_send(members: int, sender: str, monkeypatch) -> int:
    """Codec traversals (payload freezes + header cells) one group send
    from ``sender`` costs the whole group, through the real transport."""
    engine, network, channels = mecho_world(members)
    engine.run_until(1.0)
    network.reset_stats()
    runs = 0

    def counting(original):
        def counted(value):
            nonlocal runs
            runs += 1
            return original(value)
        return counted

    with monkeypatch.context() as patch:
        patch.setattr(codec, "encode_payload",
                      counting(codec.encode_payload))
        patch.setattr(codec, "encode_header", counting(codec.encode_header))
        collector_of(channels[sender]).send_text("x" * 400)
        engine.run_until(2.0)
    for node_id, channel in channels.items():
        assert collector_of(channel).payloads() == ["x" * 400], node_id
    packets = sum(network.stats_of(node_id).sent_total
                  for node_id in channels)
    assert packets == members - 1  # N-1 unicast transmissions, no more
    return runs


class TestFanOutEncodesOnce:
    @pytest.mark.parametrize("sender", ["fixed-1", "mobile-00"])
    def test_codec_runs_do_not_scale_with_the_group(self, sender,
                                                    monkeypatch):
        small = codec_runs_for_one_send(4, sender, monkeypatch)
        large = codec_runs_for_one_send(16, sender, monkeypatch)
        assert small == large
        # One payload freeze plus one run per header cell pushed: the
        # reliable layer's, Mecho's, and the relay's when it forwards.
        assert large == (3 if sender == "fixed-1" else 4)


# -- the datagram is unchanged ------------------------------------------------

def reference_frame(packet: Packet) -> bytes:
    """The datagram with the body re-traversed header by header."""
    names = "\0".join((packet.src, packet.logical_src, packet.port,
                       packet.event_cls.__name__, packet.traffic_class))
    encoded = names.encode("utf-8")
    out = bytearray((FRAME_MAGIC, FRAME_VERSION))
    codec._append_varint(out, len(encoded))
    return bytes(out) + encoded + traversed(packet.message)


class TestFrameBytes:
    @given(payload=wire_values, headers=header_stacks)
    @settings(max_examples=200, deadline=None)
    def test_frame_matches_the_traversal_and_round_trips(self, payload,
                                                         headers):
        packet = Packet(src="fixed-0", dst="mobile-0", port="data",
                        event_cls=ApplicationMessage,
                        message=Message(payload, headers=headers).wire_copy(),
                        logical_src="mobile-1")
        frame = encode_frame(packet)  # cells pushed on this node
        assert frame == reference_frame(packet)
        arrived = decode_frame(frame, "mobile-0")
        assert arrived.dst == "mobile-0"
        assert arrived.message == packet.message
        assert arrived.message.headers == headers
        assert arrived.size_bytes == packet.size_bytes
        assert arrived.message.size_bytes == packet.message.size_bytes
        # Cells that came off the wire: forwarding re-sends their bytes.
        assert encode_frame(arrived) == frame
        assert decode_frame(encode_frame(arrived), "mobile-0").message == \
            packet.message
