"""Messages carried by sendable events — copy-on-write with structural sharing.

Appia messages are byte buffers with a header stack: each layer pushes its
header on the way down and pops it on the way up.  This reproduction keeps
the push/pop discipline but stores the stack as a **persistent (immutable)
cons structure**: every :class:`Message` is a lightweight handle ``(payload,
top-node)`` onto a shared chain of :class:`_HeaderNode` cells, each cell
immutable once created.

Consequences, and the ownership contract every layer relies on:

* :meth:`Message.copy` is **O(1)** — it duplicates the handle, never the
  chain or the payload.  ``push_header`` allocates one cell on top of the
  shared tail; ``pop_header`` moves this handle's top pointer down, so
  **no sequence of push/pop on one handle can corrupt another handle's
  view**.
* **Everything a message carries is in the wire format**
  (:mod:`repro.kernel.codec`, the package's one serializer).  A header is
  encoded once, when it is pushed (or decoded), and its cell keeps those
  bytes and the cumulative encoded length of the stack below it; a
  header outside the format raises :class:`~repro.kernel.codec.CodecError`
  at ``push_header``.  So ``size_bytes`` — the message's exact encoded
  length, the one byte count every model and counter uses — is O(1)
  arithmetic, and every wire crossing of every handle sharing a cell
  splices the same bytes in.
* **The wire boundary freezes the payload**: :meth:`Message.wire_copy`
  encodes it once per copy family into a :class:`WirePayload` (a payload
  outside the format raises ``CodecError`` there, on the sender, on both
  backends), so a sender mutating its payload object after the send
  cannot change what receivers observe.
* **Headers are frozen at push time and payloads are shared by
  reference.**  A layer that pushes mutable state must push a private
  copy (as the causal layer does with its vector clock); a popped header,
  a sent payload and a received payload are read-only.  Mutating one
  corrupts every handle sharing it *and* desynchronizes its cached
  encoding.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

# The codec imports this module too.  Each binds the other as a module
# object and reads its names at call time, so either may load first.
from repro.kernel import codec

#: Payload types a receiver may share with the sender: frozen, they are
#: their own decoded value.
_IMMUTABLE_PAYLOAD_TYPES = (bytes, str, int, float, bool, frozenset,
                            type(None), type)


class WirePayload:
    """A payload frozen into compact wire bytes (see :mod:`.codec`).

    The payload's wire form: the sender encodes once per transmission
    (shared by every receiver of a fan-out via the message's copy-family
    cache), and receivers decode lazily, once per family —
    :attr:`Message.payload` unwraps transparently, so layers never see the
    wrapper.
    """

    __slots__ = ("blob", "_decoded")

    _UNSET = object()

    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self._decoded: Any = WirePayload._UNSET

    def decoded(self) -> Any:
        """The payload object, decoded on first access and then shared.

        Sharing one decode across the copy family mirrors the pre-codec
        behaviour (all receivers of a transmission observed one snapshot
        object); the decoded value is immutable by the ownership contract.
        """
        value = self._decoded
        if value is WirePayload._UNSET:
            value = self._decoded = codec.decode_payload(self.blob)
        return value

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, WirePayload):
            return self.blob == other.blob
        return self.decoded() == other

    def __hash__(self) -> int:
        return hash(self.blob)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WirePayload({len(self.blob)}B wire)"


class _HeaderNode:
    """One immutable cell of a persistent header stack.

    A cell encodes its header once, when it is pushed (the decoder,
    :func:`repro.kernel.codec._decode_message`, builds cells off the wire
    with the same fields from the bytes it has in hand): ``wire`` is the
    header's encoded form and ``wire_stack_len`` the cumulative encoded
    length of this cell and everything below it.  That makes
    ``Message.size_bytes`` O(1), and lets every wire crossing of every
    handle sharing the cell — fan-out, relay, retransmission — splice
    ``wire`` in instead of re-encoding.

    Raises:
        CodecError: for a header outside the wire format.
    """

    __slots__ = ("header", "below", "depth", "wire", "wire_stack_len")

    def __init__(self, header: Any, below: Optional["_HeaderNode"]) -> None:
        wire = codec.encode_header(header)
        self.header = header
        self.below = below
        self.wire = wire
        if below is None:
            self.depth = 1
            self.wire_stack_len = len(wire)
        else:
            self.depth = below.depth + 1
            self.wire_stack_len = below.wire_stack_len + len(wire)


def _varint_len(value: int) -> int:
    """Bytes the codec's LEB128 varint spends on non-negative ``value``."""
    return ((value.bit_length() or 1) + 6) // 7


class Message:
    """A payload plus a persistent, structurally-shared stack of headers.

    The header stack follows Appia's discipline: :meth:`push_header` on the
    way down the stack, :meth:`pop_header` on the way up.  Layers must pop
    exactly the headers they pushed; violating the discipline raises
    ``IndexError`` which surfaces composition bugs immediately.

    See the module docstring for the copy-on-write ownership contract.
    """

    __slots__ = ("_payload", "_top", "_wire_cache")

    def __init__(self, payload: Any = b"",
                 headers: Iterable[Any] = ()) -> None:
        self._payload = payload
        #: Shared wire cell (see :meth:`wire_copy`): a one-element list
        #: holding the frozen :class:`WirePayload` of the current payload,
        #: shared by every handle :meth:`copy` derives from this one so a
        #: fan-out's N transmissions encode once.  ``None`` until copy,
        #: wire_copy or size_bytes first needs it.
        self._wire_cache: Optional[list] = None
        top: Optional[_HeaderNode] = None
        for header in headers:  # given bottom → top, like the old list form
            top = _HeaderNode(header, top)
        self._top = top

    # -- payload --------------------------------------------------------------

    @property
    def payload(self) -> Any:
        payload = self._payload
        if type(payload) is WirePayload:
            return payload.decoded()
        return payload

    @payload.setter
    def payload(self, value: Any) -> None:
        self._payload = value
        # Detach from the shared snapshot cell: this handle's payload is
        # new, while copies made earlier keep their (still valid) cache.
        self._wire_cache = None

    # -- header stack ---------------------------------------------------------

    def push_header(self, header: Any) -> None:
        """Push ``header`` on top of the header stack (one cell allocated;
        the stack below is shared, never copied)."""
        self._top = _HeaderNode(header, self._top)

    def pop_header(self) -> Any:
        """Pop and return the top header (this handle's view only; other
        handles sharing the chain are unaffected).

        Raises:
            IndexError: if the header stack is empty.
        """
        top = self._top
        if top is None:
            raise IndexError("pop from an empty header stack")
        self._top = top.below
        return top.header

    def peek_header(self) -> Any:
        """Return the top header without removing it."""
        if self._top is None:
            raise IndexError("peek on an empty header stack")
        return self._top.header

    @property
    def header_depth(self) -> int:
        """Number of headers on the stack — O(1)."""
        return 0 if self._top is None else self._top.depth

    @property
    def headers(self) -> list[Any]:
        """The header stack as a fresh bottom→top list.

        Materialized on demand for diagnostics and tests.  Hot paths
        should use :attr:`header_depth` / :meth:`peek_header` instead;
        mutating the returned list does not affect the message.
        """
        out: list[Any] = []
        node = self._top
        while node is not None:
            out.append(node.header)
            node = node.below
        out.reverse()
        return out

    # -- size accounting ------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """The message's exact encoded length — the bytes
        :func:`~repro.kernel.codec.encode_payload` gives it and a datagram
        carries — by O(1) arithmetic at any header depth.

        Nothing is encoded to take it on a wire copy: each cell knows the
        cumulative encoded length of the stack below it and the frozen
        blob knows its own.  An unfrozen handle freezes its payload
        through the copy-family cache that :meth:`wire_copy` uses, so the
        send that follows encodes nothing again.

        Raises:
            CodecError: for a payload outside the wire format.
        """
        payload = self._payload
        if type(payload) is not WirePayload:
            payload = self._frozen_payload()
        blob_len = len(payload.blob)
        # message tag + blob tag + the blob with its length varint
        size = 2 + blob_len + _varint_len(blob_len)
        top = self._top
        if top is None:
            return size + 1  # zero header count
        return size + _varint_len(top.depth) + top.wire_stack_len

    # -- copying --------------------------------------------------------------

    def copy(self) -> "Message":
        """Return an O(1) copy-on-write handle onto the same structure.

        The copy and the original share the payload reference and the
        header chain; push/pop on either never affects the other.  Fan-out,
        relaying and retransmission stores copy with this.
        """
        cache = self._wire_cache
        if cache is None:
            # Install the shared snapshot cell at the sharing point, so
            # every handle of this copy family sees one cache.
            cache = self._wire_cache = [None]
        dup = Message.__new__(Message)
        dup._payload = self._payload
        dup._top = self._top
        dup._wire_cache = cache
        return dup

    def wire_copy(self) -> "Message":
        """A copy safe to hand to the network: its payload frozen into
        codec bytes (a :class:`WirePayload`), so sender-side mutation after
        the send cannot leak into what receivers observe.

        The frozen payload is **cached in a cell shared across the
        message's copy family**: a best-effort fan-out of one group send —
        N clones of one event, each crossing the transport — encodes the
        payload once, not N times, and a relay re-transmitting a received
        message re-sends the blob it was delivered with.  The cache is
        invalidated when ``payload`` is reassigned; mutating a payload
        object *in place* after it was first transmitted is outside the
        ownership contract (see the module docstring) with or without the
        cache.

        Raises:
            CodecError: for a payload outside the wire format.
        """
        snap = self._frozen_payload()
        dup = self.copy()  # shares the cache cell holding ``snap``
        dup._payload = snap
        return dup

    def _frozen_payload(self) -> WirePayload:
        """The copy family's frozen payload, encoded on first use."""
        cache = self._wire_cache
        if cache is None:
            cache = self._wire_cache = [None]
        snap = cache[0]
        if snap is None:
            payload = self._payload
            if type(payload) is WirePayload:
                # Relay path: a received payload is already frozen bytes —
                # its own wire form, zero re-encode.
                snap = payload
            else:
                snap = WirePayload(codec.encode_payload(payload))
                if isinstance(payload, _IMMUTABLE_PAYLOAD_TYPES):
                    # Already its own snapshot: seed the decode cache so
                    # receivers observe the sender's object directly
                    # (identity pass-through, zero decode cost), as the
                    # pre-codec path did.
                    snap._decoded = payload
            cache[0] = snap
        return snap

    # -- dunder compatibility -------------------------------------------------

    def __len__(self) -> int:
        return self.size_bytes

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return self._payload == other._payload and \
            self.headers == other.headers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(payload={self._payload!r}, "
                f"headers={self.headers!r})")
