"""Epidemic (gossip) dissemination — the large-scale alternative.

From the paper's introduction: *"When the participants are in large numbers
and distributed geographically over a large-scale network, it can be
preferable to rely on epidemic protocols to implement the multicast"*
(citing NEEM).  This layer is a drop-in replacement for the best-effort
multicast at the base of the stack: instead of ``n-1`` unicasts per send,
each node pushes to ``fanout`` random peers for a bounded number of rounds,
spreading the per-send load evenly across the group.

Best-effort, probabilistic: the gossip-scale benchmark measures both the
per-node message load (≈ ``fanout × rounds`` regardless of ``n``) and the
delivery ratio.
"""

from __future__ import annotations

import random

from repro.kernel.events import Direction, Event, SendableEvent
from repro.kernel.layer import Layer
from repro.kernel.registry import register_layer
from repro.protocols.base import GroupSession
from repro.protocols.events import (GossipMessage, GroupSendableEvent,
                                    ViewEvent)


class GossipSession(GroupSession):
    """Infection state: seen message ids plus a per-node seeded RNG."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.fanout: int = int(layer.params.get("fanout", 3))
        self.rounds: int = int(layer.params.get("rounds", 4))
        self._base_seed: int = int(layer.params.get("seed", 0))
        self._rng: random.Random = random.Random(self._base_seed)
        self._counter = 0
        self._seen: set[tuple[str, int]] = set()
        #: Forwarded infections (diagnostics).
        self.forwarded = 0

    def on_channel_init(self, event: Event) -> None:
        # Derive a distinct, deterministic stream per node.
        if self.local is not None:
            self._rng = random.Random(f"{self._base_seed}:{self.local}")

    def on_view(self, event: ViewEvent) -> None:
        self._seen.clear()

    def on_event(self, event: Event) -> None:
        if isinstance(event, GossipMessage) and \
                event.direction is Direction.UP:
            self._infected(event)
            return
        if isinstance(event, GroupSendableEvent) and \
                event.direction is Direction.DOWN:
            if self.is_group_dest(event):
                self._originate(event)
                return
            if event.dest == self.local:
                loopback = event.clone()
                loopback.source = self.local
                self.send_up(loopback, channel=event.channel)
                return
        event.go()

    # -- origination ---------------------------------------------------------

    def _originate(self, event: GroupSendableEvent) -> None:
        assert self.local is not None, "gossip used before ChannelInit"
        self._counter += 1
        mid = (self.local, self._counter)
        self._seen.add(mid)
        self._push_rumor(event, mid, ttl=self.rounds, origin=self.local,
                         channel=event.channel)
        loopback = event.clone()
        loopback.source = self.local
        loopback.dest = self.local
        self.send_up(loopback, channel=event.channel)

    def _push_rumor(self, inner: GroupSendableEvent, mid: tuple[str, int],
                    ttl: int, origin: str, channel) -> None:
        if ttl <= 0:
            return
        peers = [member for member in self.members
                 if member != self.local and member != origin]
        if not peers:
            return
        chosen = self._rng.sample(peers, k=min(self.fanout, len(peers)))
        for peer in chosen:
            # The wrapped message is an O(1) copy-on-write handle: every
            # rumor of a round (and every relay of a relay) shares the
            # infected message's structure all the way down the wire.
            rumor = self.control_message(
                GossipMessage,
                {"mid": mid, "ttl": ttl, "origin": origin,
                 "cls": type(inner), "msg": inner.message.copy()},
                dest=peer, source=self.local)
            self.forwarded += 1
            self.send_down(rumor, channel=channel)

    # -- infection -------------------------------------------------------------

    def _infected(self, event: GossipMessage) -> None:
        payload = self.payload_of(event)
        mid = tuple(payload["mid"])
        if mid in self._seen:
            return
        self._seen.add(mid)
        inner_cls = payload["cls"]
        inner = inner_cls(message=payload["msg"].copy(),
                          source=payload["origin"], dest=self.local)
        self.send_up(inner, channel=event.channel)
        self._push_rumor(inner, mid, ttl=payload["ttl"] - 1,
                         origin=payload["origin"], channel=event.channel)


@register_layer
class GossipLayer(Layer):
    """Epidemic dissemination (push gossip with bounded rounds).

    Parameters: ``fanout`` (peers infected per round), ``rounds`` (TTL),
    ``seed`` (deterministic peer sampling), ``members``.
    """

    layer_name = "gossip"
    accepted_events = (SendableEvent, ViewEvent)
    provided_events = (GossipMessage,)
    session_class = GossipSession
