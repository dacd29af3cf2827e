"""Context model: attributes, snapshots and topic naming.

The paper uses *context* for **system context** — *"information that can be
directly inferred from network interface cards or operating system calls"*
(§2): device class, battery, link quality, bandwidth, memory.  A
:class:`ContextSnapshot` is one node's sampled attribute map at a point in
(virtual) time; Cocaditem disseminates snapshots and republishes them as
per-attribute topics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

# Canonical attribute names (extensible: any string is a valid attribute).
DEVICE_TYPE = "device_type"
BATTERY = "battery"
LINK_QUALITY = "link_quality"
BANDWIDTH = "bandwidth"
MEMORY = "memory"

TOPIC_PREFIX = "context"


#: ``attribute -> topic``: a pure function of the attribute name, built
#: once per distinct attribute rather than once per publication.
_TOPICS: dict[str, str] = {}


def topic_for(attribute: str) -> str:
    """Pub-sub topic carrying updates of ``attribute``."""
    topic = _TOPICS.get(attribute)
    if topic is None:
        topic = _TOPICS[attribute] = f"{TOPIC_PREFIX}.{attribute}"
    return topic


@dataclass(frozen=True)
class ContextSample:
    """One attribute observation: who, what, when."""

    node_id: str
    attribute: str
    value: Any
    time: float

    @property
    def topic(self) -> str:
        return topic_for(self.attribute)


@dataclass
class ContextSnapshot:
    """A node's full sampled context at one instant."""

    node_id: str
    time: float
    attributes: dict[str, Any] = field(default_factory=dict)

    def samples(self) -> list[ContextSample]:
        """Explode the snapshot into per-attribute samples."""
        return [ContextSample(self.node_id, attribute, value, self.time)
                for attribute, value in sorted(self.attributes.items())]

    def to_payload(self) -> dict:
        """Wire form (a plain dict, deep-copyable by the transport)."""
        return {"node": self.node_id, "time": self.time,
                "attrs": dict(self.attributes)}

    @staticmethod
    def from_payload(payload: dict) -> "ContextSnapshot":
        return ContextSnapshot(node_id=payload["node"], time=payload["time"],
                               attributes=dict(payload["attrs"]))
