"""Property tests for the copy-on-write message path.

Two properties the whole stack relies on, exercised over random programs:

* **receiver isolation** — handles created by :meth:`Message.copy` share
  the header chain structurally, yet no sequence of push/pop on one handle
  can change what any other handle observes;
* **size consistency** — the incrementally-maintained ``size_bytes``
  always equals the length of a from-scratch encoding of the same
  payload and headers.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Message
from repro.kernel.codec import encode_payload


def reference_size(message: Message) -> int:
    """The encoded length of a fresh message with the same contents."""
    return len(encode_payload(Message(message.payload,
                                      headers=message.headers)))


#: Headers as the protocols build them: immutable-once-pushed values
#: (tuples of scalars, strings, numbers, small frozen mappings).
header_values = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=12),
    st.binary(max_size=16),
    st.tuples(st.text(max_size=6), st.integers(0, 99)),
    st.tuples(st.text(max_size=4), st.text(max_size=4),
              st.integers(0, 9), st.integers(0, 9)),
    st.dictionaries(st.text(min_size=1, max_size=4),
                    st.integers(0, 50), max_size=4),
)

payload_values = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=32),
    st.dictionaries(st.text(min_size=1, max_size=6),
                    st.one_of(st.integers(), st.text(max_size=8)),
                    max_size=5),
)

#: One program step: (handle_index_seed, op_seed, header).  Resolved
#: against the live handle list at execution time.
program_steps = st.lists(
    st.tuples(st.integers(0, 1_000_000), st.integers(0, 99), header_values),
    max_size=60)


class TestSharedTailIsolation:
    @given(payload=payload_values, base_headers=st.lists(header_values,
                                                         max_size=6),
           program=program_steps)
    @settings(max_examples=200, deadline=None)
    def test_random_programs_preserve_every_handles_view(
            self, payload, base_headers, program):
        """Run a random push/pop/copy program over a growing family of
        handles while mirroring every stack in a plain-list model; all
        views must match the model at every step, and ``size_bytes`` must
        match the recursive reference at every step."""
        base = Message(payload=payload, headers=base_headers)
        handles = [base]
        model = [list(base_headers)]

        def check_all() -> None:
            for handle, expected in zip(handles, model):
                assert handle.headers == expected
                assert handle.header_depth == len(expected)
                assert handle.size_bytes == reference_size(handle)

        for index_seed, op_seed, header in program:
            at = index_seed % len(handles)
            handle, stack = handles[at], model[at]
            if op_seed < 40:
                handle.push_header(header)
                stack.append(header)
            elif op_seed < 70 and stack:
                assert handle.pop_header() == stack.pop()
            else:
                handles.append(handle.copy())
                model.append(list(stack))
            check_all()
        check_all()

    @given(payload=payload_values,
           shared=st.lists(header_values, min_size=1, max_size=5),
           receiver_programs=st.lists(program_steps, min_size=2, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_fanout_receivers_cannot_corrupt_each_other(
            self, payload, shared, receiver_programs):
        """The multicast shape: one frozen message, N receiver handles.
        Each receiver runs its own push/pop program; the transmission and
        every other receiver must observe exactly what they would have
        observed with private deep copies."""
        wire = Message(payload=payload, headers=shared)
        receivers = [wire.copy() for _ in receiver_programs]
        models = [list(shared) for _ in receiver_programs]

        for receiver, stack, program in zip(receivers, models,
                                            receiver_programs):
            for _, op_seed, header in program:
                if op_seed < 50:
                    receiver.push_header(header)
                    stack.append(header)
                elif stack:
                    assert receiver.pop_header() == stack.pop()

        assert wire.headers == list(shared)  # transmission untouched
        for receiver, stack in zip(receivers, models):
            assert receiver.headers == stack
            assert receiver.size_bytes == reference_size(receiver)


class TestIncrementalSizeAccounting:
    @given(payload=payload_values, headers=st.lists(header_values,
                                                    max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_constructed_size_matches_reference(self, payload, headers):
        message = Message(payload=payload, headers=headers)
        assert message.size_bytes == reference_size(message)

    @given(payload=payload_values, program=program_steps)
    @settings(max_examples=200, deadline=None)
    def test_size_tracks_push_pop_exactly(self, payload, program):
        message = Message(payload=payload)
        for _, op_seed, header in program:
            if op_seed < 60 or message.header_depth == 0:
                message.push_header(header)
            else:
                message.pop_header()
            assert message.size_bytes == reference_size(message)

    @given(before=payload_values, after=payload_values,
           headers=st.lists(header_values, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_payload_reassignment_reestimates(self, before, after, headers):
        message = Message(payload=before, headers=headers)
        assert message.size_bytes == reference_size(message)
        message.payload = after
        assert message.size_bytes == reference_size(message)

    @given(payload=payload_values, headers=st.lists(header_values,
                                                    max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_wire_copy_preserves_size(self, payload, headers):
        message = Message(payload=payload, headers=headers)
        assert message.wire_copy().size_bytes == message.size_bytes


class TestWireSnapshotCache:
    """One snapshot per payload, shared across the copy family — the
    fan-out of one group send must not re-snapshot per receiver."""

    def test_fanout_clones_share_one_snapshot(self):
        # beb's pattern: all clones are taken first, the transport
        # wire-copies each one afterwards.
        message = Message(payload={"kind": "chat", "body": [1, 2, 3]})
        clones = [message.copy() for _ in range(8)]
        wires = [clone.wire_copy() for clone in clones]
        assert len({id(wire.payload) for wire in wires}) == 1

    def test_snapshot_still_isolates_sender_mutation(self):
        message = Message(payload={"count": 1})
        wire = message.wire_copy()
        message.payload["count"] = 99  # sender-side mutation after send
        assert wire.payload == {"count": 1}

    def test_payload_reassignment_invalidates_the_cache(self):
        message = Message(payload={"v": 1})
        first = message.wire_copy()
        message.payload = {"v": 2}
        second = message.wire_copy()
        assert first.payload == {"v": 1}
        assert second.payload == {"v": 2}

    def test_reassigned_handle_detaches_from_its_siblings(self):
        original = Message(payload={"v": 1})
        sibling = original.copy()
        original.wire_copy()  # populate the shared cache
        sibling.payload = {"v": 2}
        assert sibling.wire_copy().payload == {"v": 2}
        assert original.wire_copy().payload == {"v": 1}

    def test_relay_rewire_reuses_the_received_snapshot(self):
        # A received message re-transmitted by a relay is already in wire
        # form: its payload is the snapshot, and re-snapshotting it would
        # only burn allocations.
        message = Message(payload={"hop": 0})
        first_hop = message.wire_copy()
        second_hop = first_hop.wire_copy()
        assert second_hop.payload is first_hop.payload

    def test_nested_message_payloads_share_via_the_cache(self):
        # Gossip/retransmission pattern: a control payload carrying a
        # Message; every relay's wire copy must reuse the inner message's
        # one payload encode (shared through its copy-family cache cell).
        inner = Message(payload={"body": ["x"]})
        clone_a, clone_b = inner.copy(), inner.copy()
        outer_a = Message(payload={"msg": clone_a, "ttl": 3})
        outer_b = Message(payload={"msg": clone_b, "ttl": 3})
        wire_a = outer_a.wire_copy()
        wire_b = outer_b.wire_copy()
        assert clone_a._wire_cache[0] is clone_b._wire_cache[0]
        assert wire_a.payload["msg"].payload \
            == wire_b.payload["msg"].payload \
            == {"body": ["x"]}

    def test_immutable_payloads_pass_through(self):
        message = Message(payload=b"raw-bytes")
        assert message.wire_copy().payload is message.payload
