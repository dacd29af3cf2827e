"""The live network: the shared network model over real UDP datagrams.

:class:`LiveNetwork` is the simulator's sibling: both subclass
:class:`repro.simnet.network.NetworkBase`, which owns the node registry,
handoffs, crashes, partitions, loss-model swaps, topology listeners, the
link model and the delivery counters.  What this module adds is the wire:
every node owns an asyncio UDP socket (:meth:`LiveNetwork.open_endpoint`),
outgoing packets are serialized by :mod:`repro.livenet.frame`, and a
locally-routed frame is charged the link model's per-hop delay and loss
draws — the simulator's own, from each sender's private loss stream — with
its send scheduled on the shared :class:`~repro.livenet.clock.WallClock`.

Peers come in two flavours:

* **local** — a :class:`~repro.simnet.node.Node` registered via
  :meth:`LiveNetwork.add_node` (after :meth:`LiveNetwork.open_endpoint`);
  the conformance harness runs whole groups this way, in one process,
  with the link model on;
* **remote** — an address announced via :meth:`LiveNetwork.register_peer`;
  the multi-process demo runs one local node per process and sends
  everything else straight to its peers' sockets (link model off — the
  wire is real).

Crash/partition/liveness checks are applied at both egress and ingress,
matching the simulator's send-time and delivery-time checks, so in-flight
frames die exactly where a simulated packet would.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Optional

from repro.kernel.codec import CodecError
from repro.kernel.packet import Packet
from repro.livenet.clock import WallClock
from repro.livenet.frame import decode_frame, encode_body, encode_frame
from repro.simnet.energy import Battery
from repro.simnet.network import LinkParams, NetworkBase, deliver
from repro.simnet.node import Node, NodeKind


class _NodeDatagramProtocol(asyncio.DatagramProtocol):
    """Receives one node's datagrams and hands them to the network."""

    def __init__(self, network: "LiveNetwork", node_id: str) -> None:
        self.network = network
        self.node_id = node_id

    def datagram_received(self, data: bytes, addr) -> None:
        self.network._on_datagram(self.node_id, data, addr)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self.network.socket_errors += 1


class LiveNetwork(NetworkBase):
    """Asyncio UDP network: :class:`NetworkBase` with a socket wire.

    Args (beyond :class:`NetworkBase`'s; ``engine`` is a :class:`WallClock`):
        impaired: charge locally-routed frames the link model's loss and
            delay; the multi-process demo turns this off.
        host: interface to bind endpoints on (loopback by default).
    """

    def __init__(self, engine: WallClock,
                 wired: Optional[LinkParams] = None,
                 wireless: Optional[LinkParams] = None,
                 impaired: bool = True,
                 host: str = "127.0.0.1",
                 native_multicast_wired: bool = False,
                 wireless_broadcast: bool = False) -> None:
        super().__init__(engine, wired, wireless, native_multicast_wired,
                         wireless_broadcast)
        self.impaired = impaired
        self.host = host
        #: Datagrams dropped by the frame decoder (malformed input).
        self.decode_errors = 0
        #: Socket-level errors reported by the event loop.
        self.socket_errors = 0
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

    def add_node(self, node_id: str, kind: NodeKind,
                 battery: Optional[Battery] = None) -> Node:
        """Register a node on its (already open) endpoint."""
        if node_id not in self._transports:
            raise RuntimeError(
                f"no endpoint open for {node_id!r}; await "
                "open_endpoint() before add_node()")
        return super().add_node(node_id, kind, battery)

    # -- transmission ----------------------------------------------------------

    def _route(self, sender: Node, packet: Packet, receivers,
               now: float) -> None:
        """Frame and send one request's datagrams, in ``receivers`` order.

        The frames of a shared request differ only in the ``dst`` of their
        meta, so its message body is encoded once for all of them.  A
        frame for a local node, when ``impaired``, then takes the link
        model's loss draws and is sent after its delay
        (:meth:`~repro.simnet.network.NetworkBase._hop_plan`, resolved
        once per destination kind, as the simulator does).
        """
        src_id = sender.node_id
        size = packet.size_bytes
        reach = self._reach_of(src_id)
        body = None
        plans: dict = {}
        for dst_id in receivers:
            local = self.nodes.get(dst_id)
            if (local is None and dst_id not in self._addresses) or (
                    reach is not None and dst_id not in reach):
                self.lost_packets += 1  # gone, unknown or cut off
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
            if local is None or not self.impaired:
                self._send_frame(src_id, dst_id, frame)
                continue
            plan = plans.get(local.kind)
            if plan is None:
                plan = plans[local.kind] = self._hop_plan(sender, local.kind,
                                                          size)
            is_lost_on_hop, _, delay = plan
            if any(is_lost(size) for is_lost in is_lost_on_hop):
                self.lost_packets += 1
            else:
                self.engine.call_later(
                    delay, partial(self._send_frame, src_id, dst_id, frame))

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
