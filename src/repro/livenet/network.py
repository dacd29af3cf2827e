"""The live network: the shared network model over real UDP datagrams.

:class:`LiveNetwork` is the simulator's sibling: both subclass
:class:`repro.simnet.network.NetworkBase`, which owns the node registry,
handoffs, crashes, partitions, loss-model swaps, topology listeners, the
link model and the delivery counters.  What this module adds is the wire:
every node owns a non-blocking UDP socket (:meth:`LiveNetwork.open_endpoint`)
read by an event-loop reader, and outgoing packets are serialized by
:mod:`repro.livenet.frame`.

**One frame per request.**  The socket is the address — a frame does not
name its receiver — so every datagram of one request is the same bytes,
encoded once, when the first receiver survives the reach check.  With
``impaired`` on, each datagram to a local node then takes the link
model's loss draws — the simulator's own, from the sender's private loss
stream, per receiver and in receiver order — and the survivors of one
destination kind are sent together by **one**
:class:`~repro.livenet.clock.WallClock` entry at that kind's delay.

**One pass per datagram.**  A node's reader drains its socket
(``recvfrom_into`` on one preallocated buffer) until it would block; each
datagram is decoded in one pass (:func:`~repro.livenet.frame.decode_frame`
— names, header cells, the payload left as frozen bytes) and handed to
:func:`~repro.simnet.network.deliver`.  A malformed datagram is one
``decode_errors`` and is dropped; a socket error on either side is one
``socket_errors``; a frame that cannot be built (an oversized payload, a
value outside the wire format) is one ``encode_errors`` and its request
goes nowhere.  None of them is link loss (``lost_packets``).

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
import socket
from functools import partial
from typing import Optional

from repro.kernel.codec import CodecError
from repro.kernel.packet import Packet
from repro.livenet.clock import WallClock
from repro.livenet.frame import decode_frame, encode_frame
from repro.simnet.energy import Battery
from repro.simnet.network import LinkParams, NetworkBase, deliver
from repro.simnet.node import Node, NodeKind

#: Receive buffer of every reader: no UDP datagram is larger.
_RECV_BUFFER_BYTES = 64 * 1024


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
        #: Requests dropped because their frame could not be built.
        self.encode_errors = 0
        #: Failed socket reads and sends.
        self.socket_errors = 0
        self._addresses: dict[str, tuple[str, int]] = {}
        #: Each local node's socket (anything with ``sendto``).
        self._sockets: dict[str, socket.socket] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The one buffer every reader receives into.
        self._buffer = memoryview(bytearray(_RECV_BUFFER_BYTES))

    # -- endpoints ------------------------------------------------------------

    async def open_endpoint(self, node_id: str,
                            port: int = 0) -> tuple[str, int]:
        """Open ``node_id``'s UDP socket; returns the bound ``(host, port)``.

        Must run before :meth:`add_node` registers the node — a scenario
        opens every endpoint (future joiners included) up front, so the
        rest of the run stays synchronous.  Attaches the clock to the
        running loop on first use.
        """
        loop = asyncio.get_running_loop()
        if not self.engine.attached:
            self.engine.attach(loop)
        self._loop = loop
        family, kind, proto, _, address = (await loop.getaddrinfo(
            self.host, port, type=socket.SOCK_DGRAM))[0]
        if node_id in self._sockets:
            raise ValueError(f"endpoint for {node_id!r} already open")
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            sock.bind(address)
        except OSError:
            sock.close()
            raise
        loop.add_reader(sock.fileno(), self._drain, node_id, sock)
        address = sock.getsockname()[:2]
        self._sockets[node_id] = sock
        self._addresses[node_id] = address
        return address

    def register_peer(self, node_id: str, host: str, port: int) -> None:
        """Announce a remote peer's address (multi-process runs)."""
        if node_id in self._sockets:
            raise ValueError(f"{node_id!r} is a local endpoint here")
        self._addresses[node_id] = (host, port)

    def address_of(self, node_id: str) -> tuple[str, int]:
        return self._addresses[node_id]

    async def close(self) -> None:
        """Close every local socket, removing its reader, and disarm the
        clock's wakeup.  Nothing is sent or delivered afterwards."""
        for sock in self._sockets.values():
            self._loop.remove_reader(sock.fileno())
            sock.close()
        self._sockets.clear()
        self.engine.shutdown()

    def add_node(self, node_id: str, kind: NodeKind,
                 battery: Optional[Battery] = None) -> Node:
        """Register a node on its (already open) endpoint."""
        if node_id not in self._sockets:
            raise RuntimeError(
                f"no endpoint open for {node_id!r}; await "
                "open_endpoint() before add_node()")
        return super().add_node(node_id, kind, battery)

    # -- transmission ----------------------------------------------------------

    def _route(self, sender: Node, packet: Packet, receivers,
               now: float) -> None:
        """Frame one request and send its datagrams, in ``receivers`` order.

        The frame is encoded once, for the first receiver that survives
        the reach check, and every datagram is that frame.  To a local
        node, when ``impaired``, a datagram first takes the link model's
        loss draws (:meth:`~repro.simnet.network.NetworkBase._hop_plan`,
        resolved once per destination kind, as the simulator does); the
        survivors of a kind share one clock entry at its delay.  A frame
        that cannot be built ends the request: one ``encode_errors``.
        """
        src_id = sender.node_id
        size = packet.size_bytes
        reach = self._reach_of(src_id)
        nodes = self.nodes
        addresses = self._addresses
        frame = None
        # Per destination kind's value: [is_lost_on_hop, delay,
        # survivors], the survivors' list made with the kind's clock entry.
        kinds: dict = {}
        for dst_id in receivers:
            local = nodes.get(dst_id)
            if (local is None and dst_id not in addresses) or (
                    reach is not None and dst_id not in reach):
                self.lost_packets += 1  # gone, unknown or cut off
                continue
            if frame is None:
                try:
                    frame = encode_frame(packet)
                except CodecError:
                    self.encode_errors += 1
                    return
            if local is None or not self.impaired:
                self._send_frame(src_id, (dst_id,), frame)
                continue
            kind = local.kind
            plan = kinds.get(kind._value_)
            if plan is None:
                is_lost_on_hop, delay = self._hop_plan(sender, kind, size)
                plan = kinds[kind._value_] = [is_lost_on_hop, delay, None]
            for is_lost in plan[0]:
                if is_lost(size):
                    self.lost_packets += 1
                    break
            else:
                survivors = plan[2]
                if survivors is None:
                    survivors = plan[2] = []
                    self.engine.call_later(plan[1], partial(
                        self._send_frame, src_id, survivors, frame))
                survivors.append(dst_id)

    def _send_frame(self, src_id: str, dst_ids, frame: bytes) -> None:
        """Send ``frame`` from ``src_id``'s socket to each of ``dst_ids``."""
        sock = self._sockets.get(src_id)
        addresses = self._addresses
        for dst_id in dst_ids:
            address = addresses.get(dst_id)
            if sock is None or address is None:
                self.lost_packets += 1  # closed or departed meanwhile
                continue
            try:
                sock.sendto(frame, address)
            except OSError:
                self.socket_errors += 1

    # -- reception -------------------------------------------------------------

    def _drain(self, node_id: str, sock: socket.socket) -> None:
        """``node_id``'s reader: receive every queued datagram, one pass
        each, until the socket would block."""
        recv_into = sock.recvfrom_into
        buffer = self._buffer
        while True:
            try:
                nbytes, addr = recv_into(buffer)
            except BlockingIOError:
                return
            except OSError:
                self.socket_errors += 1
                return
            self._on_datagram(node_id, buffer[:nbytes].tobytes(), addr)

    def _on_datagram(self, node_id: str, data: bytes, addr) -> None:
        try:
            packet = decode_frame(data, node_id)
        except CodecError:
            self.decode_errors += 1
            return
        node = self.nodes.get(node_id)
        if node is None:
            self.lost_packets += 1  # departed while the frame was in flight
            return
        deliver(self, node, packet)
