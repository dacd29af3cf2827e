"""Optional packet tracing for debugging experiments.

A :class:`PacketTrace` hooks a network and records every transmission
*request* in a ring buffer; `dump()` renders a compact, time-ordered log.
One entry is one call of :meth:`Network.transmit`: a unicast, a native
multicast (``dst`` a tuple), or a point-to-point fan-out (``dst`` an
:class:`~repro.kernel.packet.EachOf`, which stands for one packet per
member — packet totals are :class:`~repro.simnet.stats.NodeStats`'
business, not the trace's).  Tracing is off by default — experiments that
count hundreds of thousands of packets should not pay for it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.simnet.network import Network
from repro.simnet.node import SimNode
from repro.kernel.packet import Packet


@dataclass(frozen=True)
class TraceEntry:
    """One recorded transmission request (``dst`` says how many packets)."""

    time: float
    src: str
    dst: object
    port: str
    event: str
    traffic_class: str
    size_bytes: int

    def format(self) -> str:
        return (f"{self.time:10.4f}s {self.src:>10} -> {str(self.dst):<22} "
                f"{self.port:<10} {self.event:<28} {self.traffic_class:<7} "
                f"{self.size_bytes}B")


class PacketTrace:
    """Records transmissions by wrapping :meth:`Network.transmit`.

    Args:
        network: the network to observe.
        capacity: ring-buffer size; oldest entries are evicted first.
    """

    def __init__(self, network: Network, capacity: int = 10_000) -> None:
        self.network = network
        self.entries: deque[TraceEntry] = deque(maxlen=capacity)
        self._original_transmit = network.transmit
        self._installed = False

    def install(self) -> "PacketTrace":
        """Start recording.  Returns self for chaining."""
        if self._installed:
            return self

        def traced_transmit(sender: SimNode, packet: Packet) -> None:
            self.entries.append(TraceEntry(
                time=self.network.engine.now(), src=sender.node_id,
                dst=packet.dst, port=packet.port,
                event=packet.event_cls.__name__,
                traffic_class=packet.traffic_class,
                size_bytes=packet.size_bytes))
            self._original_transmit(sender, packet)

        self.network.transmit = traced_transmit  # type: ignore[method-assign]
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Stop recording and restore the network."""
        if self._installed:
            self.network.transmit = self._original_transmit  # type: ignore[method-assign]
            self._installed = False

    def dump(self, limit: Optional[int] = None) -> str:
        """Render the newest ``limit`` entries (all when omitted)."""
        entries = list(self.entries)
        if limit is not None:
            entries = entries[-limit:]
        return "\n".join(entry.format() for entry in entries)

    def count(self, event: Optional[str] = None,
              src: Optional[str] = None) -> int:
        """Count recorded requests matching the given filters."""
        total = 0
        for entry in self.entries:
            if event is not None and entry.event != event:
                continue
            if src is not None and entry.src != src:
                continue
            total += 1
        return total
