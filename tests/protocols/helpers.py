"""Shared scaffolding for protocol-suite tests: full stacks on simnet."""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.kernel import (Direction, Event, Layer, Message, QoS,
                          SendableEvent, Session)
from repro.protocols import (GROUP_DEST, ApplicationMessage,
                             BestEffortMulticastLayer, BlockEvent,
                             CausalOrderLayer, HeartbeatLayer, MechoLayer,
                             MembershipLayer, QuiescentEvent,
                             ReliableMulticastLayer, SuspectEvent,
                             TotalOrderLayer, View, ViewEvent, ViewSyncLayer)
from repro.simnet import (BernoulliLoss, DatagramTransportSession,
                          LinkParams, Network, SimEngine, SimTransportLayer)


class CollectorSession(Session):
    """Top-of-stack test application: records deliveries and view changes."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.delivered: list[ApplicationMessage] = []
        self.views: list[View] = []
        self.blocks = 0
        self.quiescent: list[View] = []
        #: Interleaved record of deliveries and view installations, used by
        #: view-synchrony tests ("what was delivered before view k?").
        self.timeline: list[tuple[str, object]] = []

    def handle(self, event: Event) -> None:
        if isinstance(event, ApplicationMessage) and \
                event.direction is Direction.UP:
            self.delivered.append(event)
            self.timeline.append(("msg", event.message.payload))
            return
        if isinstance(event, ViewEvent):
            self.views.append(event.view)
            self.timeline.append(("view", event.view.view_id))
            return
        if isinstance(event, BlockEvent):
            self.blocks += 1
            event.go()
            return
        if isinstance(event, QuiescentEvent):
            self.quiescent.append(event.view)
            event.go()
            return
        event.go()

    # -- conveniences ------------------------------------------------------

    def payloads(self) -> list:
        return [event.message.payload for event in self.delivered]

    def sources(self) -> list[str]:
        return [event.source for event in self.delivered]

    def send_text(self, payload) -> None:
        event = ApplicationMessage(message=Message(payload=payload),
                                   dest=GROUP_DEST)
        self.send_down(event)

    @property
    def view(self) -> Optional[View]:
        return self.views[-1] if self.views else None


class CollectorLayer(Layer):
    accepted_events = (ApplicationMessage, ViewEvent, BlockEvent,
                       QuiescentEvent, SuspectEvent)
    provided_events = (ApplicationMessage,)
    session_class = CollectorSession


def build_group_stack(network: Network, node_id: str,
                      members: Sequence[str],
                      dissemination: Optional[Layer] = None,
                      heartbeat_interval: float = 0.5,
                      nack_interval: float = 0.1,
                      ordering: Sequence[str] = (),
                      channel_name: str = "data",
                      join: bool = False,
                      transport: Optional[DatagramTransportSession] = None):
    """Compose the full suite on one node; returns the channel.

    ``ordering`` may contain ``"causal"`` and/or ``"total"``.  With
    ``join=True`` the node solicits admission from ``members`` instead of
    self-installing a bootstrap view.  Channels of one node that should
    share a NIC (and its supervision service) pass the same ``transport``
    session; by default each channel gets its own.
    """
    node = network.node(node_id)
    members_csv = ",".join(sorted(members))
    transport_layer = SimTransportLayer()
    transport_session = transport or \
        DatagramTransportSession(transport_layer, node=node)
    if dissemination is None:
        dissemination = BestEffortMulticastLayer(members=members_csv)
    layers: list[Layer] = [
        transport_layer,
        dissemination,
        ReliableMulticastLayer(members=members_csv,
                               nack_interval=nack_interval),
        HeartbeatLayer(members=members_csv, interval=heartbeat_interval),
        MembershipLayer(members=members_csv, retry_interval=0.3, join=join),
        ViewSyncLayer(),
    ]
    if "causal" in ordering:
        layers.append(CausalOrderLayer())
    if "total" in ordering:
        layers.append(TotalOrderLayer())
    layers.append(CollectorLayer())
    qos = QoS(f"suite-{node_id}", layers)
    channel = qos.create_channel(channel_name, node.kernel,
                                 preset_sessions={0: transport_session})
    channel.start()
    return channel


def collector_of(channel) -> CollectorSession:
    return channel.sessions[-1]


def membership_of(channel):
    return channel.session_named("membership")


def build_world(member_specs: dict[str, str], seed: int = 3,
                wireless_loss: float = 0.0,
                dissemination_factory=None,
                **stack_kwargs):
    """Create engine+network+stacks.

    ``member_specs`` maps node id → ``"fixed"`` | ``"mobile"``.
    ``dissemination_factory(node_id)`` may supply a per-node dissemination
    layer (e.g. Mecho in the right mode).
    Returns ``(engine, network, {node_id: channel})``.
    """
    engine = SimEngine()
    loss = BernoulliLoss(wireless_loss, random.Random(seed)) \
        if wireless_loss else None
    wireless = LinkParams(latency_s=0.002, bandwidth_bps=11e6,
                          loss=loss) if loss else None
    network = Network(engine, wireless=wireless)
    for node_id, kind in member_specs.items():
        if kind == "fixed":
            network.add_fixed_node(node_id)
        else:
            network.add_mobile_node(node_id)
    channels = {}
    members = sorted(member_specs)
    for node_id in members:
        dissemination = dissemination_factory(node_id) \
            if dissemination_factory is not None else None
        channels[node_id] = build_group_stack(network, node_id, members,
                                              dissemination=dissemination,
                                              **stack_kwargs)
    return engine, network, channels
