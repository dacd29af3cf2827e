"""The network model: a wired LAN bridged to an 802.11-style cell.

Topology model (matching the paper's hybrid scenario, Figure 2(b)):

* **fixed** nodes sit on a wired LAN segment;
* **mobile** nodes sit in a wireless cell and reach everyone through the
  base station / access point, which bridges to the LAN;
* consequently a mobile→mobile packet crosses two wireless hops, a
  mobile→fixed packet one wireless and one wired hop, and fixed→fixed
  traffic stays on the wire.

Native multicast is available *within* a segment only (the premise of the
paper's Mecho design): the wired LAN may offer IP-multicast to fixed nodes,
and an all-mobile ad hoc cell may offer local broadcast.  There is no native
multicast spanning the access point, which is exactly why a hybrid group
benefits from relaying through a fixed node.

Failure injection: nodes can be crashed and the network can be partitioned
into isolated groups, which the failure-detector and membership tests use.

Runtime topology mutation: the topology is *not* fixed for a run's
lifetime.  Nodes can hand off between segments
(:meth:`NetworkBase.move_node`), join after t=0
(:meth:`NetworkBase.add_node` mid-run), depart permanently
(:meth:`NetworkBase.remove_node`), and either segment's loss model can be
swapped live (:meth:`NetworkBase.set_wireless_loss` /
:meth:`NetworkBase.set_wired_loss`).  Every mutation bumps
``topology_epoch`` and notifies subscribed topology listeners with a
:class:`TopologyChange` — the hook the context layer uses for
event-driven (rather than purely periodic) adaptation.

All of that is :class:`NetworkBase`, written once for both backends; a
backend adds only its wire.  :class:`Network` is the simulator's: packets
wait for their delivery instant on the engine's virtual timeline.
:class:`repro.livenet.network.LiveNetwork` is the live one: packets are
framed onto real UDP sockets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.simnet.energy import Battery
from repro.simnet.engine import SLOT_WIDTH_S, ScheduledCall, SimEngine
from repro.simnet.loss import LossModel, NoLoss
from repro.simnet.node import Node, NodeKind
from repro.kernel.packet import EachOf, Packet
from repro.simnet.stats import NodeStats, aggregate

#: Reciprocal of the engine slot width (multiply beats divide on hot paths).
_INV_SLOT_WIDTH = 1.0 / SLOT_WIDTH_S


@dataclass
class LinkParams:
    """Characteristics of one link type (wired segment or wireless hop)."""

    latency_s: float = 0.0005
    bandwidth_bps: float = 100e6
    loss: LossModel = field(default_factory=NoLoss)

    def delay_for(self, size_bytes: int) -> float:
        """Propagation plus serialization delay for a packet."""
        return self.latency_s + (size_bytes * 8.0) / self.bandwidth_bps


def default_wired() -> LinkParams:
    """100 Mbit/s switched Ethernet."""
    return LinkParams(latency_s=0.0005, bandwidth_bps=100e6)


def default_wireless(loss: Optional[LossModel] = None) -> LinkParams:
    """11 Mbit/s 802.11b with optional loss model."""
    return LinkParams(latency_s=0.002, bandwidth_bps=11e6,
                      loss=loss if loss is not None else NoLoss())


@dataclass(frozen=True)
class TopologyChange:
    """One runtime mutation of the network, as seen by topology listeners.

    Attributes:
        kind: what changed — ``"join"``, ``"move"``, ``"remove"``,
            ``"crash"``, ``"recover"``, ``"loss"``, ``"partition"``,
            ``"heal"``.
        node_id: the affected node, or ``None`` for network-wide changes
            (loss swaps, partitions).
        detail: human-readable specifics (target segment, loss model, …).
        epoch: value of :attr:`NetworkBase.topology_epoch` after the change.
    """

    kind: str
    node_id: Optional[str]
    detail: str
    epoch: int

    def format(self) -> str:
        subject = self.node_id if self.node_id is not None else "*"
        return f"{self.kind} {subject} {self.detail}".rstrip()


TopologyListener = Callable[[TopologyChange], None]


def charge(sender, packet: Packet, now: float, times: int = 1) -> int:
    """Account ``times`` back-to-back transmissions of ``packet`` to
    ``sender``; returns how many left the NIC.

    Each transmission is counted and (on a mobile sender) charged to the
    battery on its own, and only a live sender transmits: a crashed one
    sends nothing, and a battery that runs out at transmission *k* ends
    the sequence there.  Whatever did not leave is a drop.  Nothing
    drains a sender without a battery (or docked on the wire) between
    transmissions, so all of its are recorded at once.
    """
    stats = sender.stats
    battery = sender.battery if sender.is_mobile else None
    packet.sent_at = now
    if battery is None:
        if not sender.alive:
            stats.record_dropped(times)
            return 0
        if times:  # an empty fan-out leaves no zero-count entries
            stats.record_sent(packet, times)
        return times
    for sent in range(times):
        if not sender.alive:
            stats.record_dropped(times - sent)
            return sent
        stats.record_sent(packet)
        battery.consume_tx(packet.size_bytes, now)
    return times


def charged_receivers(network, sender, packet: Packet, now: float):
    """Charge ``sender`` for the request ``packet`` is and return the
    receivers it must now be routed to, in order.

    The one place that knows the three destination forms, shared by both
    backends (``network`` supplies its own multicast legality rule):
    a unicast and a native multicast are *one* transmission — for one
    receiver, or for every member but the sender — while an
    :class:`~repro.kernel.packet.EachOf` is one transmission *per
    member*, of which only the first *k* the sender could pay for go out.
    """
    dst = packet.dst
    if isinstance(dst, EachOf):
        return dst.members[:charge(sender, packet, now, len(dst.members))]
    if not charge(sender, packet, now):
        return ()
    if packet.is_multicast:
        network._check_multicast_legal(sender, packet)
        return [member for member in dst if member != sender.node_id]
    return (dst,)


def deliver(network, node, packet: Packet) -> None:
    """``packet`` arrives at ``node``'s NIC: drop it or hand it to its port.

    The receive-side twin of :func:`charged_receivers`, shared by both
    backends.  A packet dies mid-flight because the destination crashed
    (or its battery ran out) while it was in the air or because a
    partition was declared under it; either way it is one network-level
    loss (``lost_packets``) *and* one drop charged to the receiver
    (``dropped_packets``) — the two failure modes are indistinguishable
    to every other observer and must count alike.  One that arrives is
    counted, charged to a mobile receiver's battery and handed to the
    receiver bound to its port; an unbound port is a receiver-side drop.
    """
    stats = node.stats
    battery = node.battery if node.kind is NodeKind.MOBILE else None
    # ``not node.alive``, spelled out: this runs once per packet.
    if node.crashed or (battery is not None and not battery.alive) or (
            network._partitions is not None
            and not network.reachable(packet.src, node.node_id)):
        network.lost_packets += 1
        stats.record_dropped()
        return
    network.delivered_packets += 1
    stats.record_received(packet)
    if battery is not None:
        battery.consume_rx(packet.size_bytes, network.engine.now())
    receiver = node._ports.get(packet.port)
    if receiver is None:
        stats.record_dropped()
        return
    receiver(packet)


class NetworkBase:
    """The hybrid topology both backends share: everything but the wire.

    The node registry, runtime topology mutation and its listeners,
    failure injection, partitions, multicast legality, the link model
    (hops, per-hop delay and per-sender loss draws) and reporting live
    here, once.  A backend subclasses this and adds only how a routed
    packet travels — :meth:`_route` — and whatever that needs: the
    simulator (:class:`Network`) queues packets on its virtual timeline,
    the live backend (:class:`repro.livenet.network.LiveNetwork`) frames
    them onto UDP sockets.

    Args:
        engine: the shared clock (a :class:`SimEngine` or a
            :class:`~repro.livenet.clock.WallClock`).
        wired: link parameters of the LAN segment.
        wireless: link parameters of one wireless hop.
        native_multicast_wired: whether fixed nodes may use IP-multicast on
            the LAN segment.
        wireless_broadcast: whether an all-mobile cell supports local
            broadcast (ad hoc mode).
    """

    def __init__(self, engine,
                 wired: Optional[LinkParams] = None,
                 wireless: Optional[LinkParams] = None,
                 native_multicast_wired: bool = False,
                 wireless_broadcast: bool = False) -> None:
        self.engine = engine
        self.wired = wired if wired is not None else default_wired()
        self.wireless = wireless if wireless is not None else default_wireless()
        self.native_multicast_wired = native_multicast_wired
        self.wireless_broadcast = wireless_broadcast
        self.nodes: dict[str, Node] = {}
        #: Nodes that left for good (stats retained for reporting).
        self.departed: dict[str, Node] = {}
        self._partitions: Optional[list[set[str]]] = None
        #: Packets lost to link loss models, partitions, or dead receivers.
        self.lost_packets = 0
        #: Packets delivered to a node's NIC.
        self.delivered_packets = 0
        #: Bumped on every runtime topology mutation.
        self.topology_epoch = 0
        self._topology_listeners: list[TopologyListener] = []
        #: Per-sender loss streams, resolved lazily from a segment's loss
        #: model via its ``spawn`` hook (see :mod:`repro.simnet.loss`):
        #: ``{model: {sender_id: stream}}``.  Per-sender streams make a
        #: node's loss draws independent of how *other* nodes' traffic
        #: interleaves — the property that lets disjoint segments run in
        #: worker processes reproduce the combined run's histories, and a
        #: live replay draw the simulator's losses.
        self._loss_streams: dict[LossModel, dict[str, LossModel]] = {}

    # -- topology -----------------------------------------------------------

    def add_node(self, node_id: str, kind: NodeKind,
                 battery: Optional[Battery] = None) -> Node:
        """Create and register a node.

        Mobile nodes get a default battery when none is supplied, so energy
        accounting is always meaningful.
        """
        if node_id in self.nodes or node_id in self.departed:
            raise ValueError(f"duplicate node id {node_id!r}")
        if kind is NodeKind.MOBILE and battery is None:
            battery = Battery()
        node = Node(node_id, kind, self, battery=battery)
        self.nodes[node_id] = node
        self._notify("join", node_id, f"as {kind.value}")
        return node

    def add_fixed_node(self, node_id: str) -> Node:
        """Shorthand for a wired infrastructure host."""
        return self.add_node(node_id, NodeKind.FIXED)

    def add_mobile_node(self, node_id: str,
                        battery: Optional[Battery] = None) -> Node:
        """Shorthand for a battery-powered wireless device."""
        return self.add_node(node_id, NodeKind.MOBILE, battery=battery)

    def node(self, node_id: str) -> Node:
        """Look up a node by id."""
        return self.nodes[node_id]

    # -- runtime topology mutation ------------------------------------------

    def subscribe_topology(self, listener: TopologyListener) -> None:
        """Register ``listener`` for :class:`TopologyChange` notifications.

        Listeners fire synchronously, in subscription order, from within
        the mutating call — deterministic, like everything else here.
        """
        self._topology_listeners.append(listener)

    def unsubscribe_topology(self, listener: TopologyListener) -> None:
        """Remove a previously subscribed listener (unknown ones ignored)."""
        if listener in self._topology_listeners:
            self._topology_listeners.remove(listener)

    def _notify(self, kind: str, node_id: Optional[str],
                detail: str = "") -> None:
        self.topology_epoch += 1
        change = TopologyChange(kind, node_id, detail, self.topology_epoch)
        for listener in list(self._topology_listeners):
            listener(change)

    def move_node(self, node_id: str, kind: NodeKind) -> Node:
        """Hand a node off to the other segment (FIXED ↔ MOBILE).

        Models a device leaving the office LAN for the wireless cell (or
        docking back): routing, native-multicast legality and every context
        retriever observe the new segment immediately.  A device moving to
        the wireless cell gets a default battery if it never had one; moving
        to the wire means mains power — the battery object is kept (its
        charge state survives a round trip) but stops draining and stops
        mattering for liveness while docked.
        """
        node = self.nodes[node_id]
        if node.kind is kind:
            return node
        node.kind = kind
        if kind is NodeKind.MOBILE and node.battery is None:
            node.battery = Battery()
        self._notify("move", node_id, f"to {kind.value}")
        return node

    def remove_node(self, node_id: str) -> None:
        """Permanently remove a node (graceful departure or decommission).

        The node stops sending and receiving, and its timers stop;
        packets in flight towards it are lost.  Its traffic counters remain queryable through
        :meth:`stats_of` / :meth:`total_stats` so experiment accounting
        still covers its lifetime.
        """
        node = self.nodes.pop(node_id)
        node.crashed = True
        node.kernel.cancel_timers()
        self.departed[node_id] = node
        self._notify("remove", node_id)

    def set_wireless_loss(self, loss: LossModel) -> None:
        """Swap the wireless cell's loss model live (interference onset,
        channel recovery, …)."""
        self.wireless.loss = loss
        self._notify("loss", None, f"wireless {loss!r}")

    def set_wired_loss(self, loss: LossModel) -> None:
        """Swap the LAN segment's loss model live."""
        self.wired.loss = loss
        self._notify("loss", None, f"wired {loss!r}")

    def node_ids(self) -> list[str]:
        """All node ids, sorted (deterministic iteration everywhere)."""
        return sorted(self.nodes)

    def fixed_ids(self) -> list[str]:
        return sorted(node_id for node_id, node in self.nodes.items()
                      if node.is_fixed)

    def mobile_ids(self) -> list[str]:
        return sorted(node_id for node_id, node in self.nodes.items()
                      if node.is_mobile)

    # -- failure injection ------------------------------------------------------

    def crash_node(self, node_id: str) -> None:
        """Silently stop a node: it neither sends nor receives anything."""
        self.nodes[node_id].crashed = True
        self._notify("crash", node_id)

    def recover_node(self, node_id: str) -> None:
        """Undo :meth:`crash_node`."""
        self.nodes[node_id].crashed = False
        self._notify("recover", node_id)

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the network; only nodes in the same group communicate."""
        self._partitions = [set(group) for group in groups]
        rendered = " | ".join(
            ",".join(sorted(group)) for group in self._partitions)
        self._notify("partition", None, rendered)

    def heal_partition(self) -> None:
        """Remove any partition."""
        self._partitions = None
        self._notify("heal", None)

    def reachable(self, src: str, dst: str) -> bool:
        """Whether packets from ``src`` can currently reach ``dst``
        (partition topology only — loss and crash are separate)."""
        reach = self._reach_of(src)
        return reach is None or dst in reach

    def _reach_of(self, src: str):
        """The nodes ``src`` can currently reach; ``None`` means everyone
        (no partition declared)."""
        if self._partitions is None:
            return None
        for group in self._partitions:
            if src in group:
                return group
        return ()

    # -- transmission -------------------------------------------------------------

    def transmit(self, sender: Node, packet: Packet) -> None:
        """Send ``packet`` from ``sender``: count it, charge energy, route it.

        The single entry point for all three destination forms — unicast,
        native multicast (``tuple``) and point-to-point fan-out
        (:class:`~repro.kernel.packet.EachOf`); :func:`charged_receivers`
        has what each costs the sender.  A native multicast is only legal
        within a single segment (see module docstring); violations raise
        ``ValueError`` because they indicate a protocol configuration bug.

        Every charged receiver then goes through the backend's one
        routing core, ``_route``.  The per-receiver packets share the request's
        frozen message structurally (:meth:`Packet.copy_for` hands each
        receiver an O(1) copy-on-write handle), so fan-out cost is
        per-packet bookkeeping, not per-receiver message copies.
        """
        now = self.engine.now()
        self._route(sender, packet,
                    charged_receivers(self, sender, packet, now), now)

    def _check_multicast_legal(self, sender: Node, packet: Packet) -> None:
        receivers = [d for d in packet.dst if d != sender.node_id]
        if not receivers:
            raise ValueError(
                f"native multicast from {sender.node_id} has no receivers "
                f"(dst={packet.dst!r}); an empty fan-out is a protocol "
                "configuration bug")
        dst_nodes = [self.nodes[d] for d in packet.dst if d in self.nodes]
        all_fixed = sender.is_fixed and all(n.is_fixed for n in dst_nodes)
        all_mobile = sender.is_mobile and all(n.is_mobile for n in dst_nodes)
        if all_fixed and self.native_multicast_wired:
            return
        if all_mobile and self.wireless_broadcast:
            return
        raise ValueError(
            f"native multicast from {sender.node_id} to {packet.dst} is not "
            "available on this topology (no multicast across the base "
            "station; enable native_multicast_wired/wireless_broadcast for "
            "single-segment groups)")

    def _sender_loss(self, model: LossModel, sender_id: str) -> LossModel:
        """Resolve ``sender_id``'s private draw stream of ``model``.

        Models without a ``spawn`` hook (or spawned without a seed base)
        keep the legacy single shared stream.
        """
        spawn = getattr(model, "spawn", None)
        if spawn is None:
            return model
        streams = self._loss_streams.get(model)
        if streams is None:
            streams = self._loss_streams[model] = {}
        stream = streams.get(sender_id)
        if stream is None:
            stream = streams[sender_id] = spawn(sender_id)
        return stream

    def _hop_plan(self, sender: Node, dst_kind: NodeKind,
                  size: int) -> tuple[list, int, float]:
        """The link model from ``sender`` to a ``dst_kind`` node for
        ``size`` bytes: ``(is_lost_on_hop, hop_count, delay)`` — the draw
        of the sender's own loss stream per hop, in hop order (a packet is
        lost at the first hop that draws a loss), and the summed delay."""
        hops = self._hops_between(sender.kind, dst_kind)
        delay = 0.0
        for link in hops:
            delay += link.delay_for(size)
        sender_id = sender.node_id
        return ([self._sender_loss(link.loss, sender_id).is_lost
                 for link in hops], len(hops), delay)

    def _hops_between(self, src: NodeKind,
                      dst: NodeKind) -> list[LinkParams]:
        if src is NodeKind.FIXED:
            if dst is NodeKind.FIXED:
                return [self.wired]
            return [self.wired, self.wireless]
        if dst is NodeKind.FIXED:
            return [self.wireless, self.wired]
        return [self.wireless, self.wireless]  # mobile→AP→mobile

    # -- reporting ---------------------------------------------------------------

    def stats_of(self, node_id: str) -> NodeStats:
        """Traffic counters of one node (departed nodes included)."""
        node = self.nodes.get(node_id)
        if node is None:
            node = self.departed[node_id]
        return node.stats

    def total_stats(self) -> dict:
        """Aggregated counters across all nodes, departed ones included."""
        everyone = list(self.nodes.values()) + list(self.departed.values())
        return aggregate([node.stats for node in everyone])

    def reset_stats(self) -> None:
        """Zero all node counters (between experiment phases)."""
        for node in list(self.nodes.values()) + list(self.departed.values()):
            node.stats.reset()
        self.lost_packets = 0
        self.delivered_packets = 0


class Network(NetworkBase):
    """Simulated hybrid network shared by every node of a run: a
    :class:`NetworkBase` whose routed packets wait in one
    :class:`_DeliveryBatcher` for their instant on the engine's timeline."""

    def __init__(self, engine: SimEngine,
                 wired: Optional[LinkParams] = None,
                 wireless: Optional[LinkParams] = None,
                 native_multicast_wired: bool = False,
                 wireless_broadcast: bool = False) -> None:
        super().__init__(engine, wired, wireless, native_multicast_wired,
                         wireless_broadcast)
        #: Every in-flight packet waits here for its delivery instant
        #: (see :class:`_DeliveryBatcher`).
        self._batcher = _DeliveryBatcher(self, engine)

    def _route(self, sender: Node, packet: Packet, receivers,
               now: float) -> None:
        """Put one request's packets in flight, in ``receivers`` order.

        The routing core shared by unicast, native multicast and
        point-to-point fan-out.  What depends only on the request — the
        sender's partition side, and per destination *kind* the
        hop count, the sender's loss streams and the delivery instant for
        this size — is resolved once, in locals that die with the call
        (nothing re-enters the network before it returns, so there is no
        cache to invalidate).  What can differ per receiver — existence,
        reachability, the loss draws, the reserved sequence number and the
        receiver's own packet record — happens per receiver.
        """
        sender_id = sender.node_id
        size = packet.size_bytes
        nodes = self.nodes
        reach = self._reach_of(sender_id)
        reserve_seq = self.engine.reserve_seq
        enqueue = self._batcher.enqueue
        paths: dict = {}
        for dst_id in receivers:
            dst = nodes.get(dst_id)
            if dst is None or (reach is not None and dst_id not in reach):
                self.lost_packets += 1
                continue
            path = paths.get(dst.kind)
            if path is None:
                is_lost_on_hop, hop_count, delay = self._hop_plan(
                    sender, dst.kind, size)
                path = paths[dst.kind] = (is_lost_on_hop, hop_count,
                                          now + delay)
            is_lost_on_hop, hop_count, when = path
            for is_lost in is_lost_on_hop:
                if is_lost(size):
                    self.lost_packets += 1
                    break
            else:
                # A unicast packet is its own delivery record; a shared
                # request hands each receiver a copy-on-write sibling.
                record = packet if dst_id is packet.dst \
                    else packet.copy_for(dst_id)
                record.hops = hop_count
                # Queue the packet under the (when, seq) a call_at of its
                # own would have taken: reserving the seq here keeps every
                # other callback's sequence number, and so the run's
                # history, that of a one-entry-per-packet schedule.
                enqueue(when, reserve_seq(), dst, record)


class _DeliveryBatcher:
    """Same-slot delivery batching: the network's one delivery path.

    One engine event drains a whole wheel slot of queued deliveries: the
    flush entry sits at the queue head's reserved ``(when, seq)``, so the
    engine fires it exactly where a per-packet callback would have fired.
    The drain then keeps delivering queued packets as long as (a) the next
    one is due before this flush's slot ends — beyond that, wheel entries
    the peek cannot see could be owed first — (b) no visible engine entry
    outranks it, and (c) it does not cross the active ``run_until``
    deadline (inclusive, like ``run_until`` itself).  Each delivery
    advances the virtual clock to its exact instant, so observers cannot
    tell batching from one engine entry per packet (the parity tests swap
    in such a per-packet batcher and assert identical histories).
    """

    __slots__ = ("network", "engine", "pending", "_flush_call",
                 "_flush_key", "_in_flush")

    def __init__(self, network: Network, engine: SimEngine) -> None:
        self.network = network
        self.engine = engine
        #: In-flight packets awaiting delivery, ordered by ``(when, seq)``
        #: — the exact instant/rank a per-packet ``call_at`` would have
        #: fired them at (the seq is reserved from the engine's counter).
        self.pending: list[tuple[float, int, Node, Packet]] = []
        self._flush_call: Optional[ScheduledCall] = None
        self._flush_key: Optional[tuple[float, int]] = None
        self._in_flush = False

    def enqueue(self, when: float, seq: int, dst: Node,
                packet: Packet) -> None:
        heapq.heappush(self.pending, (when, seq, dst, packet))
        if not self._in_flush and \
                (self._flush_key is None or (when, seq) < self._flush_key):
            self._schedule_flush(when, seq)

    def _schedule_flush(self, when: float, seq: int) -> None:
        if self._flush_call is not None:
            self._flush_call.cancel()
        self._flush_key = (when, seq)
        self._flush_call = self.engine.schedule_at_seq(
            when, seq, self._flush_deliveries)

    def _flush_deliveries(self) -> None:
        self._flush_call = None
        flush_when = self._flush_key[0]
        self._flush_key = None
        engine = self.engine
        pending = self.pending
        deadline = engine.run_deadline
        slot_end = (int(flush_when * _INV_SLOT_WIDTH) + 1) * SLOT_WIDTH_S
        network = self.network
        peek = engine.peek_due
        advance_clock = engine.advance_clock
        pop = heapq.heappop
        self._in_flush = True
        try:
            while pending:
                when, seq, dst, packet = pending[0]
                if when >= slot_end or when > deadline:
                    break
                nxt = peek()
                if nxt is not None and nxt < (when, seq):
                    break
                pop(pending)
                advance_clock(when)
                deliver(network, dst, packet)
        finally:
            self._in_flush = False
        if pending:
            head = pending[0]
            self._schedule_flush(head[0], head[1])
