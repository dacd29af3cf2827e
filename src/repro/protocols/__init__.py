"""The group-communication protocol suite (paper §3.1, §3.4).

Micro-protocol layers for the kernel, combinable into stacks:

* dissemination: :mod:`~repro.protocols.beb` (non-adaptive baseline),
  :mod:`~repro.protocols.mecho` (the paper's adaptive multicast),
  :mod:`~repro.protocols.gossip` (epidemic, for large-scale groups);
* reliability: :mod:`~repro.protocols.reliable` (NACK-based FIFO),
  :mod:`~repro.protocols.fec` (forward error correction);
* group semantics: :mod:`~repro.protocols.heartbeat` (failure detection),
  :mod:`~repro.protocols.membership` (views + flush),
  :mod:`~repro.protocols.viewsync` (send blocking),
  :mod:`~repro.protocols.causal` and :mod:`~repro.protocols.total`
  (ordering).
"""

from repro.protocols.base import GroupSession, parse_member_list
from repro.protocols.beb import (BestEffortMulticastLayer,
                                 BestEffortMulticastSession)
from repro.protocols.causal import CausalOrderLayer, CausalOrderSession
from repro.protocols.events import (GROUP_DEST, ApplicationMessage,
                                    BlockEvent, ContextMessage, CoreMessage,
                                    CutReachedEvent, FlushCutEvent,
                                    FlushQueryEvent, FlushStatusEvent,
                                    GossipMessage, GroupSendableEvent,
                                    HeartbeatMessage, LeaveRequestEvent,
                                    MembershipMessage, NackMessage,
                                    OrderMessage, ParityMessage,
                                    QuiescentEvent, RetransmissionMessage,
                                    SequencedEvent, StabilityMessage,
                                    StrangerEvent, SuspectEvent, SyncMessage,
                                    TriggerViewChangeEvent, UnsuspectEvent,
                                    View, ViewEvent)
from repro.protocols.fec import FecLayer, FecSession
from repro.protocols.gossip import GossipLayer, GossipSession
from repro.protocols.heartbeat import HeartbeatLayer, HeartbeatSession
from repro.protocols.mecho import (MODE_WIRED, MODE_WIRELESS, MechoLayer,
                                   MechoSession)
from repro.protocols.membership import MembershipLayer, MembershipSession
from repro.protocols.reliable import (ReliableMulticastLayer,
                                      ReliableMulticastSession)
from repro.protocols.total import TotalOrderLayer, TotalOrderSession
from repro.protocols.viewsync import ViewSyncLayer, ViewSyncSession

__all__ = [
    "GroupSession", "parse_member_list",
    "BestEffortMulticastLayer", "BestEffortMulticastSession",
    "CausalOrderLayer", "CausalOrderSession",
    "GROUP_DEST", "ApplicationMessage", "BlockEvent", "ContextMessage",
    "CoreMessage", "CutReachedEvent", "FlushCutEvent", "FlushQueryEvent",
    "FlushStatusEvent", "GossipMessage", "GroupSendableEvent",
    "HeartbeatMessage", "LeaveRequestEvent", "MembershipMessage",
    "NackMessage", "OrderMessage", "ParityMessage", "QuiescentEvent",
    "RetransmissionMessage", "SequencedEvent", "StabilityMessage",
    "StrangerEvent",
    "SuspectEvent", "SyncMessage", "TriggerViewChangeEvent",
    "UnsuspectEvent", "View", "ViewEvent",
    "FecLayer", "FecSession",
    "GossipLayer", "GossipSession",
    "HeartbeatLayer", "HeartbeatSession",
    "MODE_WIRED", "MODE_WIRELESS", "MechoLayer", "MechoSession",
    "MembershipLayer", "MembershipSession",
    "ReliableMulticastLayer", "ReliableMulticastSession",
    "TotalOrderLayer", "TotalOrderSession",
    "ViewSyncLayer", "ViewSyncSession",
]
