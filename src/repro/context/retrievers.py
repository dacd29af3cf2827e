"""Context retrievers: per-node samplers of system context (paper §3.2).

*"[Cocaditem is] composed of: i) a set of context retrievers, located in
all nodes of the system, and ii) a publish-subscribe component responsible
for disseminating the collected information."*

Each retriever samples one attribute from the simulated device — the
analogue of reading a NIC register or making an OS call on the iPAQ.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol

from repro.context.model import (BANDWIDTH, BATTERY, DEVICE_TYPE,
                                 LINK_QUALITY, MEMORY)
from repro.simnet.loss import BernoulliLoss, GilbertElliottLoss
from repro.simnet.node import Node


class ContextRetriever(Protocol):
    """Samples one context attribute from a node."""

    attribute: str

    def sample(self, node: Node) -> Any:  # pragma: no cover - protocol
        ...


class DeviceTypeRetriever:
    """``"fixed"`` or ``"mobile"`` — the primary attribute of the paper's
    adaptive example."""

    attribute = DEVICE_TYPE

    def sample(self, node: Node) -> str:
        return node.kind.value


class BatteryRetriever:
    """Remaining battery fraction; fixed hosts report a full reserve."""

    attribute = BATTERY

    def sample(self, node: Node) -> float:
        if node.battery is None:
            return 1.0
        return round(node.battery.fraction, 6)


class LinkQualityRetriever:
    """Estimated loss probability of the node's access link.

    Mirrors what a driver would expose as link quality: for mobile nodes
    the wireless loss model's current loss probability, for fixed nodes the
    (usually negligible) wired loss.
    """

    attribute = LINK_QUALITY

    def sample(self, node: Node) -> float:
        link = node.network.wireless if node.is_mobile else node.network.wired
        loss = link.loss
        if isinstance(loss, BernoulliLoss):
            return loss.probability
        if isinstance(loss, GilbertElliottLoss):
            return loss.p_bad if loss.in_bad_state else loss.p_good
        return 0.0


class BandwidthRetriever:
    """Access-link bandwidth in bit/s."""

    attribute = BANDWIDTH

    def sample(self, node: Node) -> float:
        link = node.network.wireless if node.is_mobile else node.network.wired
        return link.bandwidth_bps


class MemoryRetriever:
    """Available memory in MiB (synthetic: PDAs are memory-constrained)."""

    attribute = MEMORY

    def __init__(self, fixed_mib: int = 512, mobile_mib: int = 64) -> None:
        self.fixed_mib = fixed_mib
        self.mobile_mib = mobile_mib

    def sample(self, node: Node) -> int:
        return self.mobile_mib if node.is_mobile else self.fixed_mib


class CallableRetriever:
    """Adapter turning any function into a retriever (tests, extensions)."""

    def __init__(self, attribute: str,
                 fn: Callable[[Node], Any]) -> None:
        self.attribute = attribute
        self._fn = fn

    def sample(self, node: Node) -> Any:
        return self._fn(node)


def default_retrievers() -> list[ContextRetriever]:
    """The retriever set deployed on every Morpheus node by default."""
    return [DeviceTypeRetriever(), BatteryRetriever(), LinkQualityRetriever(),
            BandwidthRetriever(), MemoryRetriever()]
