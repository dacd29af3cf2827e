"""Best-effort multicast — the paper's non-adaptive baseline.

From §1: *"the most straightforward design of a multicast protocol consists
of implementing the multicast as a sequence of point-to-point messages (one
for each participant in the system).  This implementation is quite generic
[...] but is also very inefficient."*  And from §3.4: *"The original
(non-adaptive) best-effort multicast implementation of the Appia group
communication protocol suite implements multicast as a sequence of
point-to-point messages [...].  When available, it may also use native
multicast."*

This layer implements exactly that baseline:

* ``dest == GROUP_DEST`` → one unicast per other member (sent as a single
  event addressed to :class:`~repro.kernel.packet.EachOf` the others: the
  per-member loop lives in the network, not in this layer), or a single
  native multicast when ``native=true`` (legal only when the whole group
  shares a segment);
* point-to-point events pass through unchanged;
* every group send is also looped back locally, so upper layers observe the
  sender's own messages like everyone else's (standard group-communication
  self-delivery).
"""

from __future__ import annotations

from repro.kernel.events import Direction, Event, SendableEvent
from repro.kernel.layer import Layer
from repro.kernel.packet import EachOf
from repro.kernel.registry import register_layer
from repro.protocols.base import GroupSession
from repro.protocols.events import GroupSendableEvent, ViewEvent


class BestEffortMulticastSession(GroupSession):
    """Fan-out state: just the current membership (from views/bootstrap)."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.native: bool = bool(layer.params.get("native", False))

    def on_event(self, event: Event) -> None:
        if isinstance(event, GroupSendableEvent) and \
                event.direction is Direction.DOWN:
            if self.is_group_dest(event):
                self._multicast(event)
                return
            if event.dest == self.local:
                # Self-addressed point-to-point (e.g. the coordinator acking
                # itself): short-circuit locally, never touching the NIC.
                loopback = event.clone()
                loopback.source = self.local
                self.send_up(loopback, channel=event.channel)
                return
        event.go()

    def _multicast(self, event: GroupSendableEvent) -> None:
        """Translate a group send into one wire event plus a local loopback.

        The wire event is addressed to every other member at once — the
        whole membership as one native-multicast transmission, or
        ``EachOf(others)`` for the sequence of point-to-point messages —
        so a group send crosses the kernel queue and the transport once
        whatever the group's size.
        """
        assert self.local is not None, "beb used before ChannelInit"
        channel = event.channel
        others = self.others()
        if others:
            wire = event.clone()
            wire.source = self.local
            wire.dest = tuple(self.members) if self.native else EachOf(others)
            self.send_down(wire, channel=channel)
        loopback = event.clone()
        loopback.source = self.local
        loopback.dest = self.local
        self.send_up(loopback, channel=channel)


@register_layer
class BestEffortMulticastLayer(Layer):
    """Non-adaptive best-effort multicast (sequence of point-to-point).

    Parameters: ``members`` (bootstrap CSV), ``native`` (use native
    multicast — requires a single-segment group).
    """

    layer_name = "beb"
    accepted_events = (SendableEvent, ViewEvent)
    provided_events = (GroupSendableEvent,)
    session_class = BestEffortMulticastSession
