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
  bytes, its charge and the cumulative charge and encoded length of the
  stack below it; a header outside the format raises
  :class:`~repro.kernel.codec.CodecError` at ``push_header``.  So
  ``size_bytes`` and ``wire_bytes`` are O(1) arithmetic, and every wire
  crossing of every handle sharing a cell splices the same bytes in.
* **The wire boundary freezes the payload**: :meth:`Message.wire_copy`
  encodes it once per copy family into a :class:`WirePayload` (a payload
  outside the format raises ``CodecError`` there, on the sender, on both
  backends), so a sender mutating its payload object after the send
  cannot change what receivers observe.
* **Headers are frozen at push time and payloads are shared by
  reference.**  A layer that pushes mutable state must push a private
  copy (as the causal layer does with its vector clock); a popped header,
  a sent payload and a received payload are read-only.  Mutating one
  corrupts every handle sharing it *and* desynchronizes the cached byte
  accounting.

The size estimates (and therefore every byte counter in
:mod:`repro.simnet.stats`) are unchanged from the recursive-walk era.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

# The codec imports this module too.  Each binds the other as a module
# object and reads its names at call time, so either may load first.
from repro.kernel import codec

#: The charge of an event-class reference (codec tag ``0x10``).
CLASS_REFERENCE_SIZE = 32


def _estimate_str(obj: str) -> int:
    return len(obj.encode("utf-8"))


def _estimate_seq(obj: Any) -> int:
    return sum(estimate_size(item) for item in obj) + 2


def _estimate_dict(obj: dict) -> int:
    return sum(estimate_size(k) + estimate_size(v)
               for k, v in obj.items()) + 2


#: Exact-type dispatch for :func:`estimate_size`: the builtins of the wire
#: format (the codec matches exact types too), the overwhelming majority
#: of what the hot send path estimates.
_ESTIMATE_FAST: dict[type, Any] = {
    bytes: len, bytearray: len, str: _estimate_str,
    bool: lambda obj: 1, int: lambda obj: 4, float: lambda obj: 8,
    type(None): lambda obj: 1,
    list: _estimate_seq, tuple: _estimate_seq,
    set: _estimate_seq, frozenset: _estimate_seq,
    dict: _estimate_dict,
}


def estimate_size(obj: Any) -> int:
    """Estimate the wire size, in bytes, of the wire value ``obj``.

    This is the charge reference: the codec computes the same number in
    its encode and decode traversals, and parity mode asserts they agree.
    A frozen value (:class:`Message`, :class:`WirePayload`) carries its
    charge as ``size_bytes``.

    Raises:
        CodecError: for a value outside the wire format.
    """
    fast = _ESTIMATE_FAST.get(type(obj))
    if fast is not None:
        return fast(obj)
    if isinstance(obj, type):
        return CLASS_REFERENCE_SIZE
    explicit = getattr(obj, "size_bytes", None)
    if isinstance(explicit, int):
        return explicit
    raise codec.CodecError(f"no wire charge for {type(obj).__name__}")


#: Payload types a receiver may share with the sender: frozen, they are
#: their own decoded value.
_IMMUTABLE_PAYLOAD_TYPES = (bytes, str, int, float, bool, frozenset,
                            type(None), type)


class WirePayload:
    """A payload frozen into compact wire bytes (see :mod:`.codec`).

    The payload's wire form: the sender encodes once per transmission (shared by every receiver of a fan-out via the
    message's copy-family cache), and receivers decode lazily, once per
    family — :attr:`Message.payload` unwraps transparently, so layers never
    see the wrapper.

    ``size_bytes`` is the *legacy* accounting charge of the encoded object
    (computed during encoding), NOT the blob length: byte charges drive
    link delays, loss draws and battery drain, and must stay bit-identical
    to the pre-codec estimates.  The true encoded length (``len(blob)``)
    feeds the separate ``wire_bytes`` counters.
    """

    __slots__ = ("blob", "size_bytes", "_decoded")

    _UNSET = object()

    def __init__(self, blob: bytes, size_bytes: int) -> None:
        self.blob = blob
        self.size_bytes = size_bytes
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
        return (f"WirePayload({len(self.blob)}B wire, "
                f"charge={self.size_bytes})")


class _HeaderNode:
    """One immutable cell of a persistent header stack.

    A cell owns both sizes of its header, taken from one codec traversal
    when the header is pushed (the decoder,
    :func:`repro.kernel.codec._decode_message`, builds cells off the wire
    with the same fields from the bytes it has in hand): ``stack_bytes``
    is the cumulative accounting charge of this cell and everything below
    it, ``wire`` the header's encoded form and ``wire_stack_len`` the
    cumulative encoded length.
    That makes ``Message.size_bytes`` and ``Message.wire_bytes`` O(1), and
    lets every wire crossing of every handle sharing the cell — fan-out,
    relay, retransmission — splice ``wire`` in instead of re-encoding.

    Raises:
        CodecError: for a header outside the wire format.
    """

    __slots__ = ("header", "below", "depth", "stack_bytes", "wire",
                 "wire_stack_len")

    def __init__(self, header: Any, below: Optional["_HeaderNode"]) -> None:
        wire, charge = codec.encode_header(header)
        self.header = header
        self.below = below
        self.wire = wire
        charge = max(charge, 1) + 1  # +1 framing byte
        if below is None:
            self.depth = 1
            self.stack_bytes = charge
            self.wire_stack_len = len(wire)
        else:
            self.depth = below.depth + 1
            self.stack_bytes = below.stack_bytes + charge
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

    __slots__ = ("_payload", "_payload_size", "_top", "_wire_cache")

    def __init__(self, payload: Any = b"",
                 headers: Iterable[Any] = ()) -> None:
        self._payload = payload
        self._payload_size: Optional[int] = None
        #: Shared wire cell (see :meth:`wire_copy`): a one-element list
        #: holding the frozen :class:`WirePayload` of the current payload,
        #: shared by every handle :meth:`copy` derives from this one so a
        #: fan-out's N transmissions encode once.  ``None`` until the
        #: first copy/wire_copy needs it.
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
        self._payload_size = None  # re-estimated lazily
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
        """Total estimated wire size of payload plus all headers — O(1).

        The per-header charges live in the shared cells; the payload
        estimate is cached per handle and invalidated when ``payload`` is
        reassigned (mutating a payload *in place* is outside the ownership
        contract — see the module docstring).
        """
        if self._payload_size is None:
            self._payload_size = estimate_size(self._payload)
        return self._payload_size + \
            (0 if self._top is None else self._top.stack_bytes)

    @property
    def wire_bytes(self) -> int:
        """Actual compact-codec length of the whole message — interned
        header keys, varint framing, and the frozen payload blob
        re-embedded verbatim — by O(1) arithmetic at any header depth.

        ``size_bytes`` stays the accounting source of truth (delay, loss
        and battery models); this is the measurement of what the compact
        encoding saves.  Nothing is encoded to take it: a cell is encoded
        once, ever, when its header is pushed, and carries the cumulative
        encoded length of the stack below it; the frozen blob knows its
        own.  Only meaningful on a wire copy (frozen payload): an
        unfrozen handle reads ``size_bytes``.
        """
        payload = self._payload
        if type(payload) is not WirePayload:
            return self.size_bytes
        top = self._top
        if top is None:
            framing = 3  # message tag + zero header count + blob tag
        else:
            framing = 2 + _varint_len(top.depth) + top.wire_stack_len
        blob_len = len(payload.blob)
        return (framing + blob_len + _varint_len(blob_len) +
                _varint_len(payload.size_bytes))

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
        dup._payload_size = self._payload_size
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
                blob, charge = codec.encode_payload(payload)
                snap = WirePayload(blob, charge)
                if isinstance(payload, _IMMUTABLE_PAYLOAD_TYPES):
                    # Already its own snapshot: seed the decode cache so
                    # receivers observe the sender's object directly
                    # (identity pass-through, zero decode cost), as the
                    # pre-codec path did.
                    snap._decoded = payload
            cache[0] = snap
        dup = self.copy()  # shares the cache cell holding ``snap``
        dup._payload = snap
        return dup

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
