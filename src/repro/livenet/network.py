"""The live network: real UDP datagram endpoints behind the Transport seam.

:class:`LiveNetwork` mirrors :class:`repro.simnet.network.Network`'s whole
mutation and query surface — node registry, handoffs, crashes, partitions,
loss-model swaps, topology listeners, delivery counters — but moves packets
as real datagrams: every node owns an asyncio UDP socket
(:meth:`open_endpoint`), outgoing packets are serialized by
:mod:`repro.livenet.frame`, and locally-routed frames pass through the
:class:`~repro.livenet.impair.LoopbackImpairments` shim (seeded loss draws
and per-hop delays scheduled on the shared
:class:`~repro.livenet.clock.WallClock`).

Peers come in two flavours:

* **local** — a :class:`~repro.livenet.node.LiveNode` registered via
  :meth:`add_node` (after :meth:`open_endpoint`); the conformance harness
  runs whole groups this way, in one process, with impairments on;
* **remote** — an address announced via :meth:`register_peer`; the
  multi-process demo runs one local node per process and sends everything
  else straight to its peers' sockets (impairments off — the wire is
  real).

Crash/partition/liveness checks are applied at both egress and ingress,
matching the simulator's send-time and delivery-time checks, so in-flight
frames die exactly where a simulated packet would.
"""

from __future__ import annotations

import asyncio
import random
from functools import partial
from typing import Callable, Iterable, Optional

from repro.kernel.codec import CodecError
from repro.kernel.packet import Packet
from repro.livenet.clock import WallClock
from repro.livenet.frame import decode_frame, encode_body, encode_frame
from repro.livenet.impair import LoopbackImpairments
from repro.livenet.node import LiveNode
from repro.simnet.energy import Battery
from repro.simnet.loss import LossModel
from repro.simnet.network import (LinkParams, TopologyChange,
                                  TopologyListener, charged_receivers,
                                  default_wired, default_wireless, deliver)
from repro.simnet.node import NodeKind
from repro.simnet.stats import NodeStats, aggregate


class _NodeDatagramProtocol(asyncio.DatagramProtocol):
    """Receives one node's datagrams and hands them to the network."""

    def __init__(self, network: "LiveNetwork", node_id: str) -> None:
        self.network = network
        self.node_id = node_id

    def datagram_received(self, data: bytes, addr) -> None:
        self.network._on_datagram(self.node_id, data, addr)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self.network.socket_errors += 1


class LiveNetwork:
    """Asyncio UDP network satisfying the kernel's Transport protocol.

    Args:
        engine: the shared :class:`WallClock` (the run's virtual timeline).
        seed: seed for the network's private random source.
        wired / wireless: link parameters used by the impairment shim (and
            read by the context retrievers, exactly as on the simulator).
        impaired: apply the loopback impairment shim to locally-routed
            frames; the multi-process demo turns this off.
        host: interface to bind endpoints on (loopback by default).
        native_multicast_wired / wireless_broadcast: native-multicast
            legality flags, mirroring the simulator's.
    """

    def __init__(self, engine: WallClock, seed: int = 0,
                 wired: Optional[LinkParams] = None,
                 wireless: Optional[LinkParams] = None,
                 impaired: bool = True,
                 host: str = "127.0.0.1",
                 native_multicast_wired: bool = False,
                 wireless_broadcast: bool = False) -> None:
        self.engine = engine
        self.rng = random.Random(seed)
        self.wired = wired if wired is not None else default_wired()
        self.wireless = wireless if wireless is not None else default_wireless()
        self.impaired = impaired
        self.host = host
        self.native_multicast_wired = native_multicast_wired
        self.wireless_broadcast = wireless_broadcast
        self.impairments = LoopbackImpairments(self.wired, self.wireless)
        self.nodes: dict[str, LiveNode] = {}
        #: Nodes that left for good (stats retained for reporting).
        self.departed: dict[str, LiveNode] = {}
        self._partitions: Optional[list[set[str]]] = None
        #: Packets lost to impairment draws, partitions, or dead receivers.
        self.lost_packets = 0
        #: Packets delivered to a node's NIC.
        self.delivered_packets = 0
        #: Datagrams dropped by the frame decoder (malformed input).
        self.decode_errors = 0
        #: Socket-level errors reported by the event loop.
        self.socket_errors = 0
        #: Bumped on every runtime topology mutation.
        self.topology_epoch = 0
        self._topology_listeners: list[TopologyListener] = []
        self._addresses: dict[str, tuple[str, int]] = {}
        self._transports: dict[str, asyncio.DatagramTransport] = {}

    # -- endpoints ------------------------------------------------------------

    async def open_endpoint(self, node_id: str,
                            port: int = 0) -> tuple[str, int]:
        """Open ``node_id``'s UDP socket; returns the bound ``(host, port)``.

        Must run before :meth:`add_node` registers the node — sockets are
        created asynchronously, nodes synchronously, so a scenario opens
        every endpoint (future joiners included) up front and the rest of
        the run stays synchronous.  Attaches the clock to the running loop
        on first use.
        """
        if node_id in self._transports:
            raise ValueError(f"endpoint for {node_id!r} already open")
        loop = asyncio.get_running_loop()
        if not self.engine.attached:
            self.engine.attach(loop)
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _NodeDatagramProtocol(self, node_id),
            local_addr=(self.host, port))
        sockname = transport.get_extra_info("sockname")
        address = (sockname[0], sockname[1])
        self._transports[node_id] = transport
        self._addresses[node_id] = address
        return address

    def register_peer(self, node_id: str, host: str, port: int) -> None:
        """Announce a remote peer's address (multi-process runs)."""
        if node_id in self._transports:
            raise ValueError(f"{node_id!r} is a local endpoint here")
        self._addresses[node_id] = (host, port)

    def address_of(self, node_id: str) -> tuple[str, int]:
        return self._addresses[node_id]

    async def close(self) -> None:
        """Close every local socket and disarm the clock's wakeup."""
        for transport in self._transports.values():
            transport.close()
        self.engine.shutdown()
        # One loop turn lets the transports run their close callbacks.
        await asyncio.sleep(0)

    # -- topology -------------------------------------------------------------

    def add_node(self, node_id: str, kind: NodeKind,
                 battery: Optional[Battery] = None) -> LiveNode:
        """Register a node on its (already open) endpoint."""
        if node_id in self.nodes or node_id in self.departed:
            raise ValueError(f"duplicate node id {node_id!r}")
        if node_id not in self._transports:
            raise RuntimeError(
                f"no endpoint open for {node_id!r}; await "
                "open_endpoint() before add_node()")
        if kind is NodeKind.MOBILE and battery is None:
            battery = Battery()
        node = LiveNode(node_id, kind, self, battery=battery)
        self.nodes[node_id] = node
        self._notify("join", node_id, f"as {kind.value}")
        return node

    def add_fixed_node(self, node_id: str) -> LiveNode:
        return self.add_node(node_id, NodeKind.FIXED)

    def add_mobile_node(self, node_id: str,
                        battery: Optional[Battery] = None) -> LiveNode:
        return self.add_node(node_id, NodeKind.MOBILE, battery=battery)

    def node(self, node_id: str) -> LiveNode:
        return self.nodes[node_id]

    def node_ids(self) -> list[str]:
        return sorted(self.nodes)

    def fixed_ids(self) -> list[str]:
        return sorted(node_id for node_id, node in self.nodes.items()
                      if node.is_fixed)

    def mobile_ids(self) -> list[str]:
        return sorted(node_id for node_id, node in self.nodes.items()
                      if node.is_mobile)

    # -- runtime topology mutation (mirrors Network) ---------------------------

    def subscribe_topology(self, listener: TopologyListener) -> None:
        self._topology_listeners.append(listener)

    def unsubscribe_topology(self, listener: TopologyListener) -> None:
        if listener in self._topology_listeners:
            self._topology_listeners.remove(listener)

    def _notify(self, kind: str, node_id: Optional[str],
                detail: str = "") -> None:
        self.topology_epoch += 1
        change = TopologyChange(kind, node_id, detail, self.topology_epoch)
        for listener in list(self._topology_listeners):
            listener(change)

    def move_node(self, node_id: str, kind: NodeKind) -> LiveNode:
        node = self.nodes[node_id]
        if node.kind is kind:
            return node
        node.kind = kind
        if kind is NodeKind.MOBILE and node.battery is None:
            node.battery = Battery()
        self._notify("move", node_id, f"to {kind.value}")
        return node

    def remove_node(self, node_id: str) -> None:
        node = self.nodes.pop(node_id)
        node.crashed = True
        node.kernel.cancel_timers()
        self.departed[node_id] = node
        self._notify("remove", node_id)

    def set_wireless_loss(self, loss: LossModel) -> None:
        self.wireless.loss = loss
        self._notify("loss", None, f"wireless {loss!r}")

    def set_wired_loss(self, loss: LossModel) -> None:
        self.wired.loss = loss
        self._notify("loss", None, f"wired {loss!r}")

    # -- failure injection -----------------------------------------------------

    def crash_node(self, node_id: str) -> None:
        self.nodes[node_id].crashed = True
        self._notify("crash", node_id)

    def recover_node(self, node_id: str) -> None:
        self.nodes[node_id].crashed = False
        self._notify("recover", node_id)

    def partition(self, *groups: Iterable[str]) -> None:
        self._partitions = [set(group) for group in groups]
        rendered = " | ".join(
            ",".join(sorted(group)) for group in self._partitions)
        self._notify("partition", None, rendered)

    def heal_partition(self) -> None:
        self._partitions = None
        self._notify("heal", None)

    def reachable(self, src: str, dst: str) -> bool:
        """Whether packets from ``src`` can currently reach ``dst``
        (partition topology only — loss and crash are separate)."""
        return self._reachable(src, dst)

    def _reachable(self, src: str, dst: str) -> bool:
        if self._partitions is None:
            return True
        for group in self._partitions:
            if src in group:
                return dst in group
        return False

    # -- transmission ----------------------------------------------------------

    def transmit(self, sender: LiveNode, packet: Packet) -> None:
        """Send ``packet``: count it, charge energy, frame it, route it.

        The single entry point for a unicast, a native multicast (one
        transmission, several receivers) and an
        :class:`~repro.kernel.packet.EachOf` fan-out (one transmission per
        member, charged in member order) — the simulator's rules, see
        :meth:`repro.simnet.network.Network.transmit`.
        """
        self._route(sender, packet, charged_receivers(
            self, sender, packet, self.engine.now()))

    def _check_multicast_legal(self, sender: LiveNode,
                               packet: Packet) -> None:
        receivers = [d for d in packet.dst if d != sender.node_id]
        if not receivers:
            raise ValueError(
                f"native multicast from {sender.node_id} has no receivers "
                f"(dst={packet.dst!r})")
        # Remote peers' kinds are unknown here; legality is judged on the
        # locally-visible members (the conformance harness runs everything
        # locally, so it sees the simulator's exact rule).
        dst_nodes = [self.nodes[d] for d in packet.dst if d in self.nodes]
        all_fixed = sender.is_fixed and all(n.is_fixed for n in dst_nodes)
        all_mobile = sender.is_mobile and all(n.is_mobile for n in dst_nodes)
        if all_fixed and self.native_multicast_wired:
            return
        if all_mobile and self.wireless_broadcast:
            return
        raise ValueError(
            f"native multicast from {sender.node_id} to {packet.dst} is not "
            "available on this topology")

    def _route(self, sender: LiveNode, packet: Packet, receivers) -> None:
        """Frame and send one request's datagrams, in ``receivers`` order.

        The routing core shared by all three destination forms.  The
        frames of a shared request differ only in the ``dst`` of their
        meta, so its message body is encoded once for all of them.
        """
        src_id = sender.node_id
        body = None
        for dst_id in receivers:
            local = self.nodes.get(dst_id)
            if local is None and dst_id not in self._addresses:
                self.lost_packets += 1  # departed or unknown destination
                continue
            if not self._reachable(src_id, dst_id):
                self.lost_packets += 1
                continue
            try:
                if dst_id is packet.dst:  # unicast: framed as it stands
                    frame = encode_frame(packet)
                else:
                    if body is None:
                        body = encode_body(packet.message)
                    frame = encode_frame(packet.copy_for(dst_id), body)
            except CodecError:
                self.lost_packets += 1
                continue
            if local is not None and self.impaired:
                plan = self.impairments.plan(sender.kind, local.kind,
                                             packet.size_bytes)
                if plan is None:
                    self.lost_packets += 1
                    continue
                self.engine.call_later(
                    plan, partial(self._send_frame, src_id, dst_id, frame))
            else:
                self._send_frame(src_id, dst_id, frame)

    def _send_frame(self, src_id: str, dst_id: str, frame: bytes) -> None:
        transport = self._transports.get(src_id)
        address = self._addresses.get(dst_id)
        if transport is None or transport.is_closing() or address is None:
            self.lost_packets += 1
            return
        transport.sendto(frame, address)

    # -- reception -------------------------------------------------------------

    def _on_datagram(self, node_id: str, data: bytes, addr) -> None:
        try:
            packet = decode_frame(data)
        except CodecError:
            self.decode_errors += 1
            return
        node = self.nodes.get(node_id)
        if node is None:
            self.lost_packets += 1  # departed while the frame was in flight
            return
        deliver(self, node, packet)

    # -- reporting -------------------------------------------------------------

    def stats_of(self, node_id: str) -> NodeStats:
        node = self.nodes.get(node_id)
        if node is None:
            node = self.departed[node_id]
        return node.stats

    def total_stats(self) -> dict:
        everyone = list(self.nodes.values()) + list(self.departed.values())
        return aggregate([node.stats for node in everyone])

    def reset_stats(self) -> None:
        for node in list(self.nodes.values()) + list(self.departed.values()):
            node.stats.reset()
        self.lost_packets = 0
        self.delivered_packets = 0
