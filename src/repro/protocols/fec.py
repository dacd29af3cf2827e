"""Forward error correction layer — the "mask the errors" alternative.

The paper's motivating example for run-time adaptation (§2): *"for small
error rates it is preferable to detect and recover (using retransmissions)
while for larger error rates it is preferable to mask the errors (using
forward error recovery techniques)"*.  This layer is the second arm of that
trade-off; :mod:`repro.protocols.reliable` is the first.  The FEC-crossover
benchmark sweeps the loss rate and reproduces the crossover.

Operation: outgoing application messages are numbered and grouped into
blocks of ``k``; after each block, ``m`` Reed–Solomon parity messages are
multicast.  A receiver reconstructs up to ``m`` missing messages per block
from any ``k`` received pieces — no retransmission round-trip, at the price
of a fixed ``m/k`` bandwidth overhead.

Messages are delivered in sequence order per sender; an incomplete,
unrecoverable block is given up after ``giveup_timeout`` so later traffic
keeps flowing (best-effort semantics, like the paper's base multicast).

A message enters the parity math as its wire form
(:func:`repro.kernel.codec.encode_payload`: remaining headers plus the
frozen payload).  A recovered block is decoded by the same codec; a block
that is not exactly one well-formed message — a corrupt or crafted parity
— is dropped and counted in ``undecodable_dropped``, never raised into
the stack.  So is a data header or a parity dict whose fields are not of
the shape and range this layer sends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.kernel import codec
from repro.kernel.events import Direction, Event, TimerEvent
from repro.kernel.layer import Layer
from repro.kernel.message import Message
from repro.kernel.registry import register_layer
from repro.protocols.base import GroupSession
from repro.protocols.events import (GROUP_DEST, ApplicationMessage,
                                    ParityMessage, ViewEvent)
from repro.protocols.rs_code import rs_decode, rs_encode

_HEADER_TAG = "fec"
_SWEEP_TIMER = "fec-sweep"
#: Seconds before an incomplete block is abandoned.
_GIVEUP_TIMEOUT = 5.0


def _freeze(message: Message) -> bytes:
    """A message's wire form (remaining headers + payload), for parity math.

    Headers are included so the layer composes below other header-pushing
    layers (e.g. under :mod:`repro.protocols.reliable`, where recovered
    messages must still carry their sequencing header).  The sender and
    every receiver freeze the same cells and the same payload blob, so
    they produce the same bytes.
    """
    return codec.encode_payload(message)


def _thaw(blob: bytes) -> Optional[Message]:
    """The message a recovered block holds, or ``None`` when the block is
    not exactly one well-formed message."""
    try:
        message = codec.decode_payload(blob)
        if type(message) is not Message:
            return None
        codec.decode_nested(message)
    except codec.CodecError:
        return None
    return message


def _is_count(value) -> bool:
    """Whether ``value`` is a non-negative ``int`` (not a ``bool``)."""
    return type(value) is int and value >= 0


@dataclass
class _BlockState:
    """Receiver-side reassembly state for one (sender, block) pair."""

    pieces: dict[int, bytes] = field(default_factory=dict)
    lengths: Optional[list[int]] = None
    delivered: set[int] = field(default_factory=set)
    first_seen: float = 0.0
    done: bool = False


class FecSession(GroupSession):
    """Block accounting on both the send and receive side."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.k: int = int(layer.params.get("k", 8))
        self.m: int = int(layer.params.get("m", 2))
        self.giveup_timeout: float = _GIVEUP_TIMEOUT
        if self.k < 1 or self.m < 0 or self.k + self.m > 256:
            raise ValueError(f"invalid FEC parameters k={self.k}, m={self.m}")
        self._block_id = 0
        self._position = 0
        self._outgoing: list[bytes] = []
        self._blocks: dict[tuple[str, int], _BlockState] = {}
        #: Foreign-framed packets dropped (generation skew diagnostics).
        self.foreign_dropped = 0
        self._sweep_handle = None
        #: Diagnostics for the crossover bench.
        self.recovered_count = 0
        self.given_up = 0
        #: Recovered blocks that were not one well-formed message, and
        #: data headers and parity dicts of the wrong shape.
        self.undecodable_dropped = 0

    # -- lifecycle -----------------------------------------------------------

    def on_channel_init(self, event: Event) -> None:
        """Deliberately arms nothing.

        The give-up sweep is armed on demand — on the first receiver-side
        block — and stops itself once every block is resolved (the
        reliable-layer pattern), so an idle channel costs zero timer
        events.  The seed revision ticked every ``giveup_timeout/2`` for
        the channel's lifetime regardless of traffic.
        """

    def _ensure_sweep(self, channel) -> None:
        self._sweep_handle = self.arm_on_demand(
            self._sweep_handle, max(self.giveup_timeout / 2, 0.1),
            _SWEEP_TIMER, channel)

    def _stop_sweep(self) -> None:
        self._sweep_handle = self.stop_timer(self._sweep_handle)

    def on_view(self, event: ViewEvent) -> None:
        self._blocks.clear()
        if self._position:
            # Abandon the partial block under a fresh id, never id 0 again:
            # this layer sits below view synchrony, so a receiver can hold
            # pieces of the old view's block while the new view's arrive,
            # and two blocks under one id decode into garbage.
            self._block_id += 1
        self._outgoing.clear()
        self._position = 0
        self._stop_sweep()  # receiver state gone; re-armed on next block

    # -- dispatch --------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        if isinstance(event, TimerEvent):
            if event.tag == _SWEEP_TIMER:
                self._sweep(event.channel)
                if not self._blocks:
                    self._stop_sweep()
            return
        if isinstance(event, ApplicationMessage):
            if event.direction is Direction.DOWN and self.is_group_dest(event):
                self._outgoing_data(event)
                return
            if event.direction is Direction.UP:
                self._incoming_data(event)
                return
        if isinstance(event, ParityMessage) and \
                event.direction is Direction.UP:
            self._incoming_parity(event)
            return
        event.go()

    # -- sender side -------------------------------------------------------------

    def _outgoing_data(self, event: ApplicationMessage) -> None:
        assert self.local is not None, "fec layer used before ChannelInit"
        blob = _freeze(event.message)
        event.message.push_header((_HEADER_TAG, self.local, self._block_id,
                                   self._position))
        self._outgoing.append(blob)
        self._position += 1
        channel = event.channel
        event.go()
        if self._position == self.k:
            self._emit_parity(channel)

    def _emit_parity(self, channel) -> None:
        parities = rs_encode(self._outgoing, self.m)
        lengths = [len(blob) for blob in self._outgoing]
        for parity_index, parity in enumerate(parities):
            message = self.control_message(
                ParityMessage,
                {"sender": self.local, "block": self._block_id,
                 "parity_index": parity_index, "k": self.k, "m": self.m,
                 "lengths": lengths, "data": parity},
                dest=GROUP_DEST, source=self.local)
            self.send_down(message, channel=channel)
        self._outgoing = []
        self._position = 0
        self._block_id += 1

    # -- receiver side -----------------------------------------------------------

    def _state_for(self, sender: str, block: int, channel) -> _BlockState:
        key = (sender, block)
        state = self._blocks.get(key)
        if state is None:
            state = _BlockState(first_seen=channel.kernel.clock.now())
            self._blocks[key] = state
            self._ensure_sweep(channel)  # first live block
        return state

    def _incoming_data(self, event: ApplicationMessage) -> None:
        if event.message.header_depth == 0:
            self.foreign_dropped += 1  # headerless frame (generation skew)
            return
        header = event.message.pop_header()
        if not (isinstance(header, tuple) and len(header) == 4 and
                header[0] == _HEADER_TAG):
            self.foreign_dropped += 1  # generation skew: not a fec frame
            return
        _tag, sender, block, position = header
        if not (type(sender) is str and _is_count(block) and
                _is_count(position) and position < self.k):
            self.undecodable_dropped += 1
            return
        if sender == self.local:
            event.go()  # loopback: already accounted on the send side
            return
        state = self._state_for(sender, block, event.channel)
        if position in state.delivered:
            return  # duplicate
        state.pieces[position] = _freeze(event.message)
        state.delivered.add(position)
        event.go()
        self._maybe_recover(sender, block, state, event.channel)

    def _incoming_parity(self, event: ParityMessage) -> None:
        payload = event.message.payload
        if not self._is_parity(payload):
            self.undecodable_dropped += 1
            return
        sender = payload["sender"]
        if sender == self.local:
            return
        state = self._state_for(sender, payload["block"], event.channel)
        state.lengths = list(payload["lengths"])
        state.pieces[self.k + payload["parity_index"]] = payload["data"]
        self._maybe_recover(sender, payload["block"], state, event.channel)

    def _is_parity(self, payload) -> bool:
        """Whether ``payload`` is a parity dict as :meth:`_emit_parity`
        builds it for this session's ``k`` and ``m``."""
        if type(payload) is not dict:
            return False
        index = payload.get("parity_index")
        lengths = payload.get("lengths")
        return (type(payload.get("sender")) is str and
                _is_count(payload.get("block")) and
                _is_count(index) and index < self.m and
                type(lengths) is list and len(lengths) == self.k and
                all(_is_count(length) for length in lengths) and
                type(payload.get("data")) is bytes)

    def _maybe_recover(self, sender: str, block: int, state: _BlockState,
                       channel) -> None:
        if state.done or state.lengths is None:
            return
        missing = [i for i in range(self.k) if i not in state.delivered]
        if not missing:
            state.done = True
            return
        if len(state.pieces) < self.k:
            return
        try:
            blocks = rs_decode(state.pieces, self.k, self.m, state.lengths)
        except ValueError:
            return
        for position in missing:
            state.delivered.add(position)
            message = _thaw(blocks[position])
            if message is None:
                self.undecodable_dropped += 1
                continue
            self.recovered_count += 1
            self.send_up(ApplicationMessage(message=message, source=sender,
                                            dest=self.local),
                         channel=channel)
        state.done = True

    def _sweep(self, channel) -> None:
        """Forget blocks that can no longer complete."""
        now = channel.kernel.clock.now()
        for key, state in list(self._blocks.items()):
            if state.done or now - state.first_seen > self.giveup_timeout:
                if not state.done and len(state.delivered) < self.k:
                    self.given_up += 1
                del self._blocks[key]


@register_layer
class FecLayer(Layer):
    """Reed–Solomon forward error correction over blocks of ``k`` messages.

    Parameters: ``k`` (data messages per block), ``m`` (parity messages per
    block).
    """

    layer_name = "fec"
    accepted_events = (ApplicationMessage, ParityMessage, TimerEvent,
                       ViewEvent)
    provided_events = (ParityMessage,)
    session_class = FecSession
