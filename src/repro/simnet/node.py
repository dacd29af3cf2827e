"""Simulated devices: fixed hosts and mobile (battery-powered) devices.

The paper's testbed had *"fixed participants executed in PCs running either
Windows or Linux [and] mobile participants executed in HP iPaq 5550 PDAs
using a 802.11b wireless network"*.  A :class:`SimNode` models either kind:
it owns a protocol :class:`~repro.kernel.scheduler.Kernel` (clocked by the
shared simulation engine), a set of bound ports for packet demultiplexing,
per-NIC traffic counters, and — for mobile nodes — a battery.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Optional

from repro.kernel.scheduler import Kernel
from repro.simnet.energy import Battery
from repro.kernel.packet import Packet
from repro.simnet.stats import NodeStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.network import Network

PacketReceiver = Callable[[Packet], None]


class NodeKind(enum.Enum):
    """Device class, the primary context attribute of the paper's example."""

    FIXED = "fixed"
    MOBILE = "mobile"


class SimNode:
    """One device of the distributed system.

    Created through :meth:`repro.simnet.network.Network.add_node`; not
    intended to be constructed directly.

    Attributes:
        node_id: unique identifier (also the address used by transports).
        kind: :class:`NodeKind` — fixed infrastructure host or mobile device.
        kernel: the node's protocol kernel, clocked by the simulation engine.
        stats: NIC traffic counters.
        battery: energy reserve for mobile nodes; ``None`` for fixed hosts.
    """

    def __init__(self, node_id: str, kind: NodeKind, network: "Network",
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
        battery-depleted.

        Battery state only gates liveness for mobile nodes: a device that
        handed off to the wired segment (see
        :meth:`~repro.simnet.network.Network.move_node`) is mains-powered,
        so a drained battery does not stop it.
        """
        if self.crashed:
            return False
        if self.is_mobile and self.battery is not None \
                and not self.battery.alive:
            return False
        return True

    # -- port demultiplexing ---------------------------------------------------

    def bind_port(self, port: str, receiver: PacketReceiver) -> None:
        """Register ``receiver`` for packets addressed to ``port``.

        Raises:
            ValueError: if the port is already bound (two channels with the
                same name on one node is a configuration bug).
        """
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
        """Transmit ``packet`` through the simulated network."""
        self.network.transmit(self, packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimNode {self.node_id} ({self.kind.value})>"
