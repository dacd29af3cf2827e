"""Per-node and network-wide traffic counters.

These counters are the measurement instrument of the reproduction: the
paper's Figure 3 is literally ``mobile_node.stats.sent_total`` after a chat
run.  Counters are broken down by traffic class (data/control) and by the
event type that generated the packet, which powers the control-overhead
ablation (footnote 1 of the paper).

Byte accounting rides ``Packet.size_bytes``, which is computed **once per
transmission** from the message's encoded length (see
:mod:`repro.kernel.message`) plus framing overheads, and read off the one
packet by every receiver of a multicast — recording a packet never walks
the header stack.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.kernel.packet import CONTROL, DATA, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.network import Network


@dataclass
class NodeStats:
    """Traffic counters for one node's network interface."""

    node_id: str
    sent_packets: Counter = field(default_factory=Counter)
    sent_wire_bytes: Counter = field(default_factory=Counter)
    recv_packets: Counter = field(default_factory=Counter)
    sent_by_event: Counter = field(default_factory=Counter)
    recv_by_event: Counter = field(default_factory=Counter)
    dropped_packets: int = 0

    # -- recording (called by the network) -----------------------------------

    def record_sent(self, packet: Packet, times: int = 1) -> None:
        """``times`` transmissions of ``packet`` left the NIC."""
        self.sent_packets[packet.traffic_class] += times
        self.sent_wire_bytes[packet.traffic_class] += \
            packet.size_bytes * times
        self.sent_by_event[packet.event_cls.__name__] += times

    def record_received(self, packet: Packet) -> None:
        self.recv_packets[packet.traffic_class] += 1
        self.recv_by_event[packet.event_cls.__name__] += 1

    def record_dropped(self, count: int = 1) -> None:
        self.dropped_packets += count

    # -- reading -----------------------------------------------------------------

    @property
    def sent_total(self) -> int:
        """All messages transmitted — data *and* control (Figure 3 metric)."""
        return sum(self.sent_packets.values())

    @property
    def sent_data(self) -> int:
        return self.sent_packets[DATA]

    @property
    def sent_control(self) -> int:
        return self.sent_packets[CONTROL]

    @property
    def recv_total(self) -> int:
        return sum(self.recv_packets.values())

    @property
    def sent_wire_bytes_total(self) -> int:
        """Bytes sent: every transmission's ``Packet.size_bytes``."""
        return sum(self.sent_wire_bytes.values())

    def snapshot(self) -> dict:
        """A plain-dict summary, convenient for experiment reports."""
        return {
            "node": self.node_id,
            "sent_total": self.sent_total,
            "sent_data": self.sent_data,
            "sent_control": self.sent_control,
            "sent_wire_bytes": self.sent_wire_bytes_total,
            "recv_total": self.recv_total,
            "dropped": self.dropped_packets,
            "sent_by_event": dict(self.sent_by_event),
        }

    def reset(self) -> None:
        """Zero every counter (used between experiment phases)."""
        self.sent_packets.clear()
        self.sent_wire_bytes.clear()
        self.recv_packets.clear()
        self.sent_by_event.clear()
        self.recv_by_event.clear()
        self.dropped_packets = 0


def aggregate(stats: list[NodeStats]) -> dict:
    """Network-wide totals across ``stats``."""
    total = {
        "sent_total": 0, "sent_data": 0, "sent_control": 0,
        "recv_total": 0, "sent_wire_bytes": 0,
        "dropped": 0,
    }
    for node_stats in stats:
        total["sent_total"] += node_stats.sent_total
        total["sent_data"] += node_stats.sent_data
        total["sent_control"] += node_stats.sent_control
        total["recv_total"] += node_stats.recv_total
        total["sent_wire_bytes"] += node_stats.sent_wire_bytes_total
        total["dropped"] += node_stats.dropped_packets
    return total
