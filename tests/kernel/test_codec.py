"""The compact wire codec: round-trips, lengths, interning, framing.

Contracts under test:

* **round-trip** — ``decode_payload(encode_payload(x)) == x`` for every
  value the wire format covers, including nested messages and re-embedded
  frozen blobs;
* **one byte model** — a message's ``size_bytes`` is the length of its
  encoding, before and after a wire crossing;
* **framing** — varints, zigzag, inline small ints and the interned-key
  table behave exactly as documented (the table is a wire contract:
  ids are registration order);
* **one serializer** — the codec is the only one: no module of the
  package imports another;
* **shared ids** — a short string in a decoded tuple or list is one
  object per distinct string, from a table that never outgrows its cap.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Message, codec
from repro.kernel.codec import (CodecError, decode_payload, encode_payload,
                                register_wire_key, wire_key_table)
from repro.kernel.message import WirePayload

# -- strategies ---------------------------------------------------------------

#: Scalars the wire format covers.  Text draws from a pool that mixes
#: interned key names with arbitrary strings, so the 0x05/0x06 split is
#: exercised constantly — including strings *equal to* registered keys in
#: value position (the interned form must round-trip to an equal str).
interned_names = st.sampled_from(sorted(wire_key_table()))
wire_text = st.one_of(st.text(max_size=16), interned_names)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=False),
    wire_text,
    st.binary(max_size=32),
)

wire_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(wire_text, children, max_size=5),
        st.frozensets(st.one_of(st.integers(), wire_text), max_size=5),
        st.frozensets(st.one_of(st.integers(), wire_text),
                      max_size=5).map(set),
    ),
    max_leaves=24,
)

header_stacks = st.lists(st.one_of(
    st.dictionaries(wire_text,
                    st.one_of(st.integers(), wire_text), max_size=4),
    st.tuples(wire_text, st.integers(0, 99)),
    wire_text,
), max_size=6)


# -- round-trip properties ----------------------------------------------------

class TestRoundTrip:
    @given(value=wire_values)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_payloads_round_trip(self, value):
        assert decode_payload(encode_payload(value)) == value

    @given(payload=wire_values, headers=header_stacks)
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_header_stacks_round_trip(self, payload, headers):
        message = Message(payload=payload, headers=headers)
        blob = encode_payload(message)
        back = decode_payload(blob)
        assert back.headers == headers
        assert back == message
        assert message.size_bytes == back.size_bytes == len(blob)

    @given(value=wire_values)
    @settings(max_examples=150, deadline=None)
    def test_parity_mode_accepts_everything_encodable(self, value):
        codec.set_parity(True)
        try:
            encode_payload(value)
        finally:
            codec.set_parity(False)

    def test_container_types_are_preserved(self):
        for value in ([1], (1,), {1}, frozenset({1}), bytearray(b"x")):
            back = decode_payload(encode_payload(value))
            assert type(back) is type(value)
            assert back == value


# -- framing ------------------------------------------------------------------

class TestFraming:
    @pytest.mark.parametrize("value", [
        0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, -1, -64, -65, -0x4000,
        2 ** 63, -(2 ** 63), 2 ** 200, -(2 ** 200),
    ])
    def test_varint_boundary_ints(self, value):
        assert decode_payload(encode_payload(value)) == value

    def test_small_ints_are_one_byte(self):
        for value in (0, 1, 127):
            blob = encode_payload(value)
            assert len(blob) == 1, value
        assert len(encode_payload(128)) > 1

    def test_interned_keys_shrink_to_two_bytes(self):
        blob = encode_payload("coordinator")
        assert len(blob) == 2  # tag + varint id
        assert decode_payload(blob) == "coordinator"

    def test_non_interned_strings_carry_their_text(self):
        blob = encode_payload("not-a-registered-key!")
        assert blob == b"\x05\x15not-a-registered-key!"

    def test_registration_is_idempotent_and_ordered(self):
        table = wire_key_table()
        first = register_wire_key("test-codec-private-key")
        assert register_wire_key("test-codec-private-key") == first
        assert first == len(table)  # appended at the next id
        blob = encode_payload("test-codec-private-key")
        assert len(blob) <= 3
        assert decode_payload(blob) == "test-codec-private-key"

    def test_truncated_blobs_raise(self):
        blob = encode_payload({"kind": "hb", "seq": 12345678})
        for cut in range(len(blob)):
            with pytest.raises(CodecError):
                decode_payload(blob[:cut])

    def test_trailing_garbage_raises(self):
        blob = encode_payload([1, 2, 3])
        with pytest.raises(CodecError):
            decode_payload(blob + b"\x00")

    def test_unknown_interned_id_raises(self):
        with pytest.raises(CodecError):
            decode_payload(bytes([0x06, 0xFF, 0xFF, 0xFF, 0x7F]))


# -- structured leaves --------------------------------------------------------

class TestStructuredLeaves:
    def test_nested_message_round_trips(self):
        inner = Message(payload={"body": ["x"], "seq": 3})
        inner.push_header(("rm", 7))
        outer = {"msg": inner, "ttl": 2}
        back = decode_payload(encode_payload(outer))
        assert back["msg"] == inner
        assert back["ttl"] == 2
        assert back["msg"].size_bytes == inner.size_bytes

    def test_wire_payload_reembeds_verbatim(self):
        wire = Message(payload={"kind": "data", "seq": 9}).wire_copy()
        frozen = wire._payload
        assert type(frozen) is WirePayload
        blob = encode_payload(frozen)
        # tag, length, the blob verbatim, and nothing after it
        assert blob == bytes((0x0F, len(frozen.blob))) + frozen.blob
        back = decode_payload(blob)
        assert type(back) is WirePayload
        assert back == frozen
        assert back.decoded() == {"kind": "data", "seq": 9}

    def test_exotic_types_raise_codec_error(self):
        class Custom:
            pass

        for value in (Custom(), object, int, {"k": Custom()}):
            with pytest.raises(CodecError):
                encode_payload(value)

    def test_bool_is_not_encoded_as_int(self):
        back = decode_payload(encode_payload([True, 1, False, 0]))
        assert [type(item) for item in back] == [bool, int, bool, int]

    def test_decode_nested_thaws_every_nested_blob(self):
        inner = Message(payload={"kind": "chat", "text": "hi"})
        inner.push_header(("rm", 7))
        back = decode_payload(encode_payload(
            {"msg": inner, "relay": [Message(payload=[1, 2]).wire_copy()]}))
        codec.decode_nested(back)
        assert back["msg"]._payload._decoded == {"kind": "chat",
                                                 "text": "hi"}
        assert back["relay"][0]._payload._decoded == [1, 2]

    def test_decode_nested_raises_on_a_malformed_nested_blob(self):
        inner = Message(payload={"kind": "chat"}).wire_copy()
        blob = bytearray(encode_payload({"msg": inner}))
        at = bytes(blob).index(inner._payload.blob)
        blob[at] = 0x1F  # the inner dict's tag
        back = decode_payload(bytes(blob))  # the nested blob stays lazy
        with pytest.raises(CodecError, match="unknown wire tag 0x1F"):
            codec.decode_nested(back)


# -- one serializer -----------------------------------------------------------

#: Serializers that can rebuild arbitrary objects from bytes.
OTHER_SERIALIZERS = {"pickle", "marshal", "shelve"}


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


class TestOneSerializer:
    def test_no_module_imports_another_serializer(self):
        package = Path(codec.__file__).resolve().parents[1]
        offenders = sorted(
            f"{path.relative_to(package)}: {name}"
            for path in package.rglob("*.py")
            for name in imported_modules(ast.parse(path.read_text()))
            if name.split(".")[0] in OTHER_SERIALIZERS)
        assert offenders == []


@pytest.fixture
def string_table(monkeypatch):
    """An empty shared-string table for one test; the process's table
    is restored after it."""
    table: dict = {}
    monkeypatch.setattr(codec, "_shared_strings", table)
    return table


class TestSharedStrings:
    def test_two_frames_from_one_sender_share_its_id(self, string_table):
        from repro.kernel.packet import Packet
        from repro.livenet.frame import decode_frame, encode_frame
        from repro.protocols.events import ApplicationMessage

        sender = "".join(["n", "07"])  # built at run time, not a constant
        decoded = []
        for seqno in (1, 2):
            message = Message({"text": f"line {seqno}"})
            message.push_header(("rel", sender, seqno))
            frame = encode_frame(Packet(
                src=sender, dst="rx", port="data",
                event_cls=ApplicationMessage, message=message.wire_copy()))
            decoded.append(decode_frame(frame, "rx").message.headers[0][1])
        assert decoded == [sender, sender]
        assert decoded[0] is decoded[1]
        assert decoded[0] is not sender

    def test_ten_thousand_ids_decode_equal_and_the_table_stays_capped(
            self, string_table):
        ids = [f"peer-{number:05d}" for number in range(10_000)]
        for start in range(0, len(ids), 100):
            batch = tuple(ids[start:start + 100])
            assert decode_payload(encode_payload(batch)) == batch
            assert decode_payload(encode_payload(list(batch))) == \
                list(batch)
            assert len(string_table) <= codec.SHARED_STRINGS_MAX
        assert len(string_table) == codec.SHARED_STRINGS_MAX
        # Past the cap a string still decodes; it is only not shared.
        first, second = (decode_payload(encode_payload((ids[-1],)))[0]
                         for _ in range(2))
        assert first == second == ids[-1] and first is not second

    def test_a_long_or_malformed_string_is_not_shared(self, string_table):
        long_id = "x" * 200
        assert decode_payload(encode_payload((long_id,))) == (long_id,)
        for blob in (b"\x0a\x01\x05\x01\xff", b"\x05\x01\xff"):
            with pytest.raises(CodecError, match="malformed string"):
                decode_payload(blob)
        assert string_table == {}
