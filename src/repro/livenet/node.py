"""Live devices: one UDP endpoint per node, same surface as ``SimNode``.

A :class:`LiveNode` is the :class:`~repro.kernel.transport.TransportEndpoint`
of the asyncio backend: it owns the node's protocol
:class:`~repro.kernel.scheduler.Kernel` (clocked by the shared
:class:`~repro.livenet.clock.WallClock`), the bound-port demultiplexer,
per-NIC traffic counters, and — for mobile nodes — a battery.  Everything
above the transport seam (Morpheus, templates, scenario machinery) is
written against this duck-typed surface and cannot tell the two backends
apart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.kernel.packet import Packet
from repro.kernel.scheduler import Kernel
from repro.kernel.transport import PacketReceiver
from repro.simnet.energy import Battery
from repro.simnet.node import NodeKind
from repro.simnet.stats import NodeStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.livenet.network import LiveNetwork


class LiveNode:
    """One device of the live system, reachable at a real UDP address.

    Created through :meth:`repro.livenet.network.LiveNetwork.add_node`
    (after its endpoint has been opened); not intended to be constructed
    directly.
    """

    def __init__(self, node_id: str, kind: NodeKind, network: "LiveNetwork",
                 battery: Optional[Battery] = None) -> None:
        self.node_id = node_id
        self.kind = kind
        self.network = network
        self.kernel = Kernel(clock=network.engine, name=node_id)
        self.stats = NodeStats(node_id)
        self.battery = battery
        self.crashed = False
        self._ports: dict[str, PacketReceiver] = {}

    # -- classification ---------------------------------------------------------

    @property
    def is_fixed(self) -> bool:
        return self.kind is NodeKind.FIXED

    @property
    def is_mobile(self) -> bool:
        return self.kind is NodeKind.MOBILE

    @property
    def alive(self) -> bool:
        """False once crashed or (while on the wireless segment)
        battery-depleted — the same liveness rule as the simulator."""
        if self.crashed:
            return False
        if self.is_mobile and self.battery is not None \
                and not self.battery.alive:
            return False
        return True

    # -- port demultiplexing ---------------------------------------------------

    def bind_port(self, port: str, receiver: PacketReceiver) -> None:
        """Register ``receiver`` for packets addressed to ``port``."""
        if port in self._ports:
            raise ValueError(f"port {port!r} already bound on {self.node_id}")
        self._ports[port] = receiver

    def unbind_port(self, port: str) -> None:
        """Release ``port``; unknown ports are ignored."""
        self._ports.pop(port, None)

    @property
    def bound_ports(self) -> tuple[str, ...]:
        return tuple(sorted(self._ports))

    # -- I/O (network-internal entry points) -------------------------------------

    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` through the live network."""
        self.network.transmit(self, packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveNode {self.node_id} ({self.kind.value})>"
