"""Shared mini-stack builders for the ablation experiments.

The ablations isolate one design axis each (error recovery, dissemination
strategy), so they run reduced stacks: transport + dissemination +
recovery + probe application, without membership dynamics.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps.workload import ProbeAppLayer, ProbeSession
from repro.kernel.layer import Layer
from repro.kernel.qos import QoS
from repro.kernel.transport import DatagramTransportSession
from repro.protocols.beb import BestEffortMulticastLayer
from repro.protocols.fec import FecLayer
from repro.protocols.gossip import GossipLayer
from repro.protocols.reliable import ReliableMulticastLayer
from repro.simnet.network import Network
from repro.simnet.transport import SimTransportLayer


def build_ministack(network: Network, node_id: str,
                    members: Sequence[str],
                    middle_layers: Sequence[Layer],
                    channel_name: str = "data") -> ProbeSession:
    """transport / ``middle_layers`` / probe-app on one node.

    Returns the probe session (top of stack).
    """
    node = network.node(node_id)
    transport_layer = SimTransportLayer()
    transport_session = DatagramTransportSession(transport_layer, node=node)
    layers: list[Layer] = [transport_layer, *middle_layers, ProbeAppLayer()]
    qos = QoS(f"mini-{node_id}", layers)
    channel = qos.create_channel(channel_name, node.kernel,
                                 preset_sessions={0: transport_session})
    channel.start()
    probe = channel.sessions[-1]
    assert isinstance(probe, ProbeSession)
    return probe


def arq_stack(members_csv: str, nack_interval: float = 0.2) -> list[Layer]:
    """Detect-and-recover: best-effort multicast + NACK retransmission."""
    return [BestEffortMulticastLayer(members=members_csv),
            ReliableMulticastLayer(members=members_csv,
                                   nack_interval=nack_interval)]


def fec_stack(members_csv: str, k: int = 8, m: int = 2,
              giveup_timeout: float = 5.0,
              nack_interval: float = 0.2) -> list[Layer]:
    """Mask-the-errors: Reed–Solomon parity with an ARQ backstop above.

    This is the composition of
    :func:`repro.core.templates.fec_data_template`: parity reconstruction
    masks most losses before the reliable layer ever notices a gap, and the
    (now rarely exercised) NACK path guarantees delivery of the residue.
    """
    return [BestEffortMulticastLayer(members=members_csv),
            FecLayer(members=members_csv, k=k, m=m,
                     giveup_timeout=giveup_timeout),
            ReliableMulticastLayer(members=members_csv,
                                   nack_interval=nack_interval)]


def flood_stack(members_csv: str) -> list[Layer]:
    """Flooding baseline: plain point-to-point fan-out."""
    return [BestEffortMulticastLayer(members=members_csv)]


def gossip_stack(members_csv: str, fanout: int = 3, rounds: int = 4,
                 seed: int = 0) -> list[Layer]:
    """Epidemic dissemination."""
    return [GossipLayer(members=members_csv, fanout=fanout, rounds=rounds,
                        seed=seed)]
