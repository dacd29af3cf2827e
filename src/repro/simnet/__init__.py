"""Deterministic discrete-event network simulator.

Substitutes for the paper's physical testbed (PCs on a LAN plus HP iPAQ
PDAs on 802.11b): fixed and mobile nodes, a wired segment bridged to a
wireless cell, per-node traffic counters (the Figure 3 instrument), loss
models, batteries, failure injection, and the bottom-of-stack transport
layer that connects Appia channels to simulated NICs.
"""

from repro.simnet.energy import Battery, EnergyParams
from repro.simnet.engine import HeapSimEngine, ScheduledCall, SimEngine
from repro.simnet.loss import (BernoulliLoss, GilbertElliottLoss, LossModel,
                               NoLoss)
from repro.simnet.network import (LinkParams, Network, NetworkBase,
                                  TopologyChange, default_wired,
                                  default_wireless)
from repro.simnet.node import Node, NodeKind
from repro.kernel.packet import (CONTROL, DATA, PACKET_OVERHEAD_BYTES, Packet)
from repro.kernel.transport import DatagramTransportSession
from repro.simnet.stats import NodeStats, aggregate
from repro.simnet.trace import PacketTrace, TraceEntry
from repro.simnet.transport import SimTransportLayer

__all__ = [
    "Battery", "EnergyParams",
    "HeapSimEngine", "ScheduledCall", "SimEngine",
    "BernoulliLoss", "GilbertElliottLoss", "LossModel", "NoLoss",
    "LinkParams", "Network", "NetworkBase", "TopologyChange", "default_wired",
    "default_wireless",
    "Node", "NodeKind",
    "CONTROL", "DATA", "PACKET_OVERHEAD_BYTES", "Packet",
    "NodeStats", "aggregate",
    "PacketTrace", "TraceEntry",
    "DatagramTransportSession", "SimTransportLayer",
]
