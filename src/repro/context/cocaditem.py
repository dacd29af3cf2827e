"""Cocaditem: the Context Capture and Dissemination System (paper §3.2).

A distributed component executed in each node.  The local instance samples
its retrievers periodically, publishes the samples on the node-local topic
bus, and sends the snapshot on the group-communication **control channel**
to the control coordinator — the one subscriber that reads it, since only
the coordinator evaluates a policy (§3.3) — which republishes it locally.
The paper multicasts every snapshot to every member; the ARCHITECTURE
document records why this deviates.

Implemented as a protocol layer so that it rides whatever stack the control
channel is composed of (and shares the channel with Core, as the paper
notes, *"for performance reasons"*).
"""

from __future__ import annotations

from typing import Optional

from repro.context.model import ContextSnapshot
from repro.context.pubsub import TopicBus
from repro.context.retrievers import ContextRetriever, default_retrievers
from repro.kernel.channel import ChannelState
from repro.kernel.events import Direction, Event, TimerEvent
from repro.kernel.layer import Layer
from repro.kernel.registry import register_layer
from repro.protocols.base import GroupSession
from repro.protocols.events import ContextMessage, ViewEvent
from repro.simnet.node import Node

_PUBLISH_TIMER = "cocaditem-publish"


class CocaditemSession(GroupSession):
    """Per-node Cocaditem instance.

    The hosting facade must call :meth:`attach` before the channel starts,
    wiring in the node, the retriever set and the local topic bus.
    """

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.publish_interval: float = float(
            layer.params.get("publish_interval", 10.0))
        self.node: Optional[Node] = None
        self.retrievers: list[ContextRetriever] = []
        self.bus: Optional[TopicBus] = None
        self._channel = None
        #: Coordinator the last snapshot was for (this node when it was the
        #: coordinator itself, ``None`` before the first view).
        self._addressed: Optional[str] = None
        #: Snapshots sent to the control coordinator (diagnostics).
        self.snapshots_sent = 0

    def attach(self, node: Node, bus: TopicBus,
               retrievers: Optional[list[ContextRetriever]] = None) -> None:
        """Wire the session to its device, bus and retriever set."""
        self.node = node
        self.bus = bus
        self.retrievers = list(retrievers) if retrievers is not None \
            else default_retrievers()

    # -- protocol ------------------------------------------------------------

    def on_channel_init(self, event: Event) -> None:
        if self.node is None or self.bus is None:
            raise RuntimeError(
                "CocaditemSession not attached; call attach(node, bus) "
                "before starting the control channel")
        self._channel = event.channel
        self.set_periodic_timer(self.publish_interval, tag=_PUBLISH_TIMER,
                                channel=event.channel)
        # Seed the bus (and, once a view exists, the coordinator) at once.
        self.set_timer(0.0, tag=_PUBLISH_TIMER, channel=event.channel)

    def on_view(self, event) -> None:
        # A new coordinator (failover) holds none of this node's context,
        # and a node admitted from outside the group may be unknown to the
        # coordinator: send right away instead of a full interval later.
        # A view that only excludes others changes nothing here.
        if self._channel is not None and (
                event.view.coordinator != self._addressed or
                self.local in event.joiners):
            self.set_timer(0.0, tag=_PUBLISH_TIMER, channel=self._channel)

    def publish_now(self) -> None:
        """Sample and disseminate immediately (event-driven adaptation).

        Called by the Morpheus facade when the network topology mutates
        under this node — the paper's periodic dissemination remains the
        baseline, this is the scenario subsystem's fast path.  A shut-down
        control channel (federation cell re-formation) is skipped: the
        trigger may fire one virtual instant after the node's stack was
        replaced.
        """
        if self._channel is not None and \
                self._channel.state is ChannelState.STARTED:
            self._collect_and_publish(self._channel)

    def on_event(self, event: Event) -> None:
        if isinstance(event, TimerEvent):
            if event.tag == _PUBLISH_TIMER:
                self._collect_and_publish(event.channel)
            return
        if isinstance(event, ContextMessage) and \
                event.direction is Direction.UP:
            snapshot = ContextSnapshot.from_payload(self.payload_of(event))
            self._republish(snapshot)
            return
        event.go()

    # -- internals ------------------------------------------------------------

    def _collect_and_publish(self, channel) -> None:
        assert self.node is not None and self.bus is not None
        now = channel.kernel.clock.now()
        attributes = {retriever.attribute: retriever.sample(self.node)
                      for retriever in self.retrievers}
        snapshot = ContextSnapshot(self.node.node_id, now, attributes)
        self._republish(snapshot)
        if self.view is None:
            return  # control group not formed yet; local bus still fed
        # Best effort: a lost snapshot is repaired by the next tick.
        self._addressed = coordinator = self.view.coordinator
        if coordinator == self.local:
            return
        message = self.control_message(ContextMessage, snapshot.to_payload(),
                                       dest=coordinator, source=self.local)
        self.snapshots_sent += 1
        self.send_down(message, channel=channel)

    def _republish(self, snapshot: ContextSnapshot) -> None:
        assert self.bus is not None
        for sample in snapshot.samples():
            self.bus.publish(sample.topic, sample)


@register_layer
class CocaditemLayer(Layer):
    """Context capture and dissemination over the control channel.

    Parameters: ``publish_interval`` (seconds between snapshots).
    """

    layer_name = "cocaditem"
    accepted_events = (ContextMessage, TimerEvent, ViewEvent)
    provided_events = (ContextMessage,)
    session_class = CocaditemSession
