"""Tests for the message / header-stack abstraction."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel import Message
from repro.kernel.codec import CodecError, encode_payload


@dataclass
class _SeqHeader:
    sender: int
    seqno: int


class _SizedHeader:
    size_bytes = 42


class TestHeaderStack:
    def test_push_pop_is_lifo(self):
        message = Message(payload=b"hello")
        message.push_header("a")
        message.push_header("b")
        assert message.pop_header() == "b"
        assert message.pop_header() == "a"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            Message().pop_header()

    def test_peek_does_not_remove(self):
        message = Message()
        message.push_header("top")
        assert message.peek_header() == "top"
        assert message.peek_header() == "top"
        assert message.pop_header() == "top"

    def test_copy_is_independent(self):
        message = Message(payload=b"payload")
        message.push_header(("seq", 1, 7))
        dup = message.copy()
        dup.pop_header()
        assert len(message.headers) == 1
        assert message.peek_header() == ("seq", 1, 7)

    def test_header_outside_the_wire_format_is_refused_at_push(self):
        message = Message(payload=b"payload")
        with pytest.raises(CodecError):
            message.push_header(_SeqHeader(sender=1, seqno=7))
        assert message.header_depth == 0

    def test_payload_outside_the_wire_format_is_refused_at_wire_copy(self):
        message = Message(payload=_SeqHeader(sender=1, seqno=7))
        with pytest.raises(CodecError):
            message.wire_copy()

    def test_copy_shares_structure_but_isolates_push_pop(self):
        """The COW contract: copies are O(1) handles onto a shared chain —
        push/pop on one handle never disturbs another, and header objects
        are frozen at push time (shared by reference, never duplicated)."""
        header = {"members": [1, 2]}
        message = Message()
        message.push_header(header)
        dup = message.copy()
        assert dup.peek_header() is header  # shared, not deep-copied
        dup.pop_header()
        dup.push_header("replacement")
        assert message.peek_header() is header
        assert message.header_depth == 1

    def test_wire_copy_snapshots_mutable_payload(self):
        """The wire boundary keeps seed semantics: once transmitted, later
        sender-side payload mutation cannot leak to receivers."""
        payload = {"members": [1, 2]}
        message = Message(payload=payload)
        wire = message.wire_copy()
        payload["members"].append(3)
        assert wire.payload == {"members": [1, 2]}

    def test_headers_property_is_a_detached_list(self):
        message = Message()
        message.push_header("a")
        message.push_header("b")
        listed = message.headers
        assert listed == ["a", "b"]
        listed.append("c")  # mutating the materialized view is a no-op
        assert message.headers == ["a", "b"]
        assert message.header_depth == 2


def payload_bytes(payload) -> int:
    """What ``payload`` adds to a message beyond an empty bytes one."""
    return Message(payload).size_bytes - Message().size_bytes + 2


class TestSizeBytes:
    def test_bytes_payload_counts_length(self):
        # message tag, header count, blob tag and length, bytes tag and
        # length, the bytes
        assert Message(b"12345").size_bytes == 11
        assert Message(b"12345").size_bytes == \
            len(encode_payload(Message(b"12345")))

    def test_str_counts_utf8_length(self):
        assert payload_bytes("héllo") - payload_bytes("hello") == 1

    def test_a_size_attribute_is_not_a_wire_value(self):
        with pytest.raises(CodecError):
            Message(_SizedHeader()).size_bytes

    def test_dataclass_is_not_a_wire_value(self):
        with pytest.raises(CodecError):
            Message(_SeqHeader(sender=1, seqno=2)).size_bytes

    def test_scalar_sizes(self):
        assert payload_bytes(True) == 1
        assert payload_bytes(3) == 1  # inline small int
        assert payload_bytes(300) == 3
        assert payload_bytes(2.5) == 9
        assert payload_bytes(None) == 1

    def test_container_sizes_are_positive(self):
        assert payload_bytes([1, 2, 3]) == 5
        assert payload_bytes({"a": 1}) == 6

    def test_message_size_includes_headers(self):
        message = Message(payload=b"xxxx")
        base = message.size_bytes
        message.push_header(("seq", 1, 2))
        assert message.size_bytes > base

    @given(st.binary(max_size=256), st.integers(min_value=0, max_value=8))
    def test_size_monotone_in_header_count(self, payload, extra_headers):
        message = Message(payload=payload)
        previous = message.size_bytes
        for index in range(extra_headers):
            message.push_header(index)
            assert message.size_bytes > previous
            previous = message.size_bytes

    @given(st.binary(max_size=512))
    def test_len_matches_size_bytes(self, payload):
        message = Message(payload=payload)
        assert len(message) == message.size_bytes
