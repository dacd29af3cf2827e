"""Inter-cell forwarding: the federation's data plane.

Each elected gateway hosts one **fed channel**: a three-layer stack —
:class:`FederationRouterLayer` over the gossip layer in bridge mode over
the shared transport — bound to the well-known ``fed`` port.  Room
traffic crosses the federation as *entries* ``{cell, sender, n, room,
text}``: the runner taps deliveries at each gateway's chat session,
publishes them here, gossip spreads them across the ring, and every
receiving gateway re-injects foreign entries into its own cell.

The router enforces the two federation-wide delivery invariants:

* **no duplicates** — an entry is identified by ``(origin_cell, sender,
  n)``; gossip may carry it along many paths (push, digest repair,
  re-publication after a gateway handover) but each gateway delivers a
  given ``n`` of a stream at most once;
* **per-stream FIFO** — entries of one ``(origin_cell, sender)`` stream
  are delivered in strictly increasing ``n``, with a bounded reorder
  buffer.  When a hole persists past ``max_gap`` buffered entries the
  stream skips forward to the earliest buffered entry (gossip is
  best-effort; waiting forever would wedge the stream), and late
  gap-fillers arriving after a skip are dropped — never delivered out
  of order.

The per-stream sequence tracking *is* the dedup: a duplicate is either
below the stream cursor or already buffered.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.templates import TRANSPORT_LABEL
from repro.kernel.channel import Channel, ChannelState
from repro.kernel.events import Direction, Event
from repro.kernel.layer import Layer
from repro.kernel.registry import register_layer
from repro.kernel.transport import DatagramTransportSession
from repro.kernel.xml_config import ChannelTemplate, LayerSpec
from repro.protocols.base import GroupSession
from repro.protocols.events import GROUP_DEST, FederationMessage
from repro.simnet.network import Network
from repro.simnet.transport import SimTransportLayer

ROUTER_LABEL = "fed_router"


class FederationRouterSession(GroupSession):
    """Dedup + per-stream reordering over the gossip bridge."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        #: Reorder-buffer bound per stream before skipping forward.
        self.max_gap: int = int(layer.params.get("max_gap", 64))
        #: Callback invoked once per delivered entry (runner glue).
        self.on_entry: Optional[Callable[[dict], None]] = None
        self._channel: Optional[Channel] = None
        #: Next expected ``n`` per (origin_cell, sender) stream.
        self._next: dict[tuple[str, str], int] = {}
        #: Out-of-order entries held back, per stream, keyed by ``n``.
        self._held: dict[tuple[str, str], dict[int, dict]] = {}
        #: Diagnostics.
        self.published = 0
        self.delivered = 0
        self.duplicates = 0
        self.skipped = 0

    def on_channel_init(self, event: Event) -> None:
        self._channel = event.channel

    def export_cursors(self) -> dict[tuple[str, str], int]:
        """Per-stream high-water marks (next expected ``n``)."""
        return dict(self._next)

    def adopt_cursors(self, cursors: dict[tuple[str, str], int]) -> None:
        """Seed stream cursors from a predecessor router.

        A successor gateway (handover or cell reshape) starts where the
        cell left off: entries the cell already saw injected are dropped
        as duplicates instead of re-delivered by the ring's catch-up
        digests — members who joined with a bounded backlog would
        otherwise receive ancient entries after current ones, breaking
        per-stream FIFO.
        """
        for stream, cursor in cursors.items():
            if cursor > self._next.get(stream, -1):
                self._next[stream] = cursor

    def publish(self, entry: dict) -> None:
        """Hand one local-cell entry to the gossip ring (and ourselves)."""
        assert self._channel is not None, "router used before ChannelInit"
        self.published += 1
        message = self.control_message(FederationMessage, dict(entry),
                                       dest=GROUP_DEST, source=self.local)
        self.send_down(message, channel=self._channel)

    def on_event(self, event: Event) -> None:
        if isinstance(event, FederationMessage) and \
                event.direction is Direction.UP:
            self._ingest(self.payload_of(event))
            return
        event.go()

    # -- ingestion ---------------------------------------------------------------

    def _ingest(self, entry: dict) -> None:
        stream = (str(entry["cell"]), str(entry["sender"]))
        n = int(entry["n"])
        cursor = self._next.get(stream)
        if cursor is None:
            # First sighting of this stream: whatever n we see becomes the
            # baseline (a gateway elected mid-conversation has no way to
            # know the stream's true start).
            self._deliver(entry)
            self._next[stream] = n + 1
            return
        if n < cursor or n in self._held.get(stream, ()):
            self.duplicates += 1
            return
        held = self._held.setdefault(stream, {})
        held[n] = entry
        self._drain(stream)
        if len(held) > self.max_gap:
            # The hole is not closing; jump to the earliest held entry so
            # the stream keeps flowing (FIFO is preserved, the gap is
            # acknowledged as lost).
            self.skipped += min(held) - self._next[stream]
            self._next[stream] = min(held)
            self._drain(stream)

    def _drain(self, stream: tuple[str, str]) -> None:
        held = self._held.get(stream)
        if not held:
            return
        cursor = self._next[stream]
        while cursor in held:
            self._deliver(held.pop(cursor))
            cursor += 1
        self._next[stream] = cursor
        if not held:
            del self._held[stream]

    def _deliver(self, entry: dict) -> None:
        self.delivered += 1
        if self.on_entry is not None:
            self.on_entry(dict(entry))


@register_layer
class FederationRouterLayer(Layer):
    """Gateway-side entry forwarding (parameters: ``max_gap``)."""

    layer_name = "fed_router"
    accepted_events = (FederationMessage,)
    provided_events = (FederationMessage,)
    session_class = FederationRouterSession


def bridge_template(gateways: Sequence[str], *, seed: int = 0,
                    fanout: int = 2, rounds: int = 2,
                    digest_interval: float = 1.0, store_max: int = 256,
                    max_gap: int = 64) -> ChannelTemplate:
    """The fed-channel description every gateway instantiates."""
    csv = ",".join(sorted(gateways))
    specs = (
        LayerSpec("fed_router", {"max_gap": max_gap},
                  session_label=ROUTER_LABEL),
        LayerSpec("gossip", {"members": csv, "mode": "bridge",
                             "fanout": fanout, "rounds": rounds,
                             "seed": seed,
                             "digest_interval": digest_interval,
                             "store_max": store_max}),
        LayerSpec("sim_transport", session_label=TRANSPORT_LABEL),
    )
    return ChannelTemplate("fed", specs)


class FederationRouter:
    """One gateway's handle on the inter-cell backbone.

    Owns the node's fed channel for the duration of a gateway term;
    a handover closes this router (unbinding the ``fed`` port, killing
    its digest timer) and opens a fresh one on the new gateway, whose
    empty-store first digest pulls the backlog from the ring.
    """

    def __init__(self, network: Network, node_id: str,
                 gateways: Sequence[str], *, seed: int = 0,
                 fanout: int = 2, rounds: int = 2,
                 digest_interval: float = 1.0, store_max: int = 256,
                 max_gap: int = 64) -> None:
        node = network.node(node_id)
        self.node_id = node_id
        transport_layer = SimTransportLayer()
        transport = DatagramTransportSession(transport_layer, node=node)
        template = bridge_template(gateways, seed=seed, fanout=fanout,
                                   rounds=rounds,
                                   digest_interval=digest_interval,
                                   store_max=store_max, max_gap=max_gap)
        self.channel: Channel = template.instantiate(
            node.kernel, channel_name="fed",
            session_bindings={TRANSPORT_LABEL: transport})
        session = self.channel.session_named("fed_router")
        assert isinstance(session, FederationRouterSession)
        self.session = session
        gossip = self.channel.session_named("gossip")
        self._gossip = gossip

    def set_peers(self, peers: Sequence[str]) -> None:
        self._gossip.set_peers(peers)

    def export_cursors(self) -> dict[tuple[str, str], int]:
        return self.session.export_cursors()

    def adopt_cursors(self, cursors: dict[tuple[str, str], int]) -> None:
        self.session.adopt_cursors(cursors)

    def publish(self, entry: dict) -> None:
        self.session.publish(entry)

    def close(self) -> None:
        if self.channel.state is ChannelState.STARTED:
            self.channel.close()
