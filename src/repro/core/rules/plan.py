"""Context directory, reconfiguration plans, policies and relay selectors.

The control component's job (paper §3.3) is *"to evaluate context
information in order to select the more adequate configuration"*.  This
is the data model every policy — rule-based or hand-written — works
with, and :class:`StaticPolicy`, the one policy that is not a rule list.
It lives here, below the rules, so the rule engine can use it without a
circular import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Protocol, Sequence

from repro.context.model import BATTERY, DEVICE_TYPE, ContextSample
from repro.context.pubsub import TopicBus
from repro.kernel.xml_config import ChannelTemplate


class ContextDirectory:
    """Latest known context sample per (node, attribute).

    Subscribes to the whole ``context.*`` subtree of a node-local bus, which
    Cocaditem feeds with both local and remote snapshots.
    """

    def __init__(self, bus: TopicBus) -> None:
        self._latest: dict[tuple[str, str], ContextSample] = {}
        self._subscription = bus.subscribe("context.*", self._absorb)

    def _absorb(self, topic: str, sample: ContextSample) -> None:
        self._latest[(sample.node_id, sample.attribute)] = sample

    # -- queries -----------------------------------------------------------

    def value(self, node_id: str, attribute: str,
              default: Any = None) -> Any:
        sample = self._latest.get((node_id, attribute))
        return sample.value if sample is not None else default

    def knows(self, node_id: str, attribute: str) -> bool:
        return (node_id, attribute) in self._latest

    def covers(self, members: Sequence[str], attribute: str) -> bool:
        """True when ``attribute`` is known for every member."""
        return all(self.knows(member, attribute) for member in members)

    def device_kinds(self, members: Sequence[str]) -> dict[str, list[str]]:
        """Members partitioned by device type (unknown members omitted)."""
        kinds: dict[str, list[str]] = {"fixed": [], "mobile": []}
        for member in members:
            kind = self.value(member, DEVICE_TYPE)
            if kind in kinds:
                kinds[kind].append(member)
        return kinds

    def is_hybrid(self, members: Sequence[str]) -> bool:
        """Hybrid scenario: at least one fixed and one mobile member."""
        kinds = self.device_kinds(members)
        return bool(kinds["fixed"]) and bool(kinds["mobile"])


@dataclass
class ReconfigurationPlan:
    """A named configuration with one template per node."""

    name: str
    templates: dict[str, ChannelTemplate] = field(default_factory=dict)


class Policy(Protocol):
    """Decides the adequate configuration for the current context.

    ``reads`` names the context attributes ``decide`` looks at: Core
    re-evaluates when a sample changes one of them.  ``now`` is the
    evaluation clock (governor windows, in the kernel's seconds) and
    ``group`` keys per-group decision state; Core always passes both.
    """

    reads: frozenset[str]

    def decide(self, directory: ContextDirectory, members: Sequence[str],
               now: Optional[float] = None,
               group: Optional[str] = None) -> Optional[ReconfigurationPlan]:
        """Return the desired plan, or ``None`` when undecidable (e.g. the
        context of some member is not yet known, or the governor holds a
        change back)."""
        ...  # pragma: no cover - protocol declaration


class StaticPolicy:
    """Always prescribes one fixed plan (tests, manual control)."""

    reads: frozenset[str] = frozenset()

    def __init__(self, plan: ReconfigurationPlan) -> None:
        self.plan = plan

    def decide(self, directory: ContextDirectory,
               members: Sequence[str],
               now: Optional[float] = None,
               group: Optional[str] = None) -> Optional[ReconfigurationPlan]:
        return self.plan


def lowest_id_relay(directory: ContextDirectory,
                    fixed_members: Sequence[str]) -> str:
    """Default relay selection: deterministic lowest identifier."""
    return sorted(fixed_members)[0]


#: What a selector reads besides the candidates it is handed: a rule that
#: selects a relay reads it too.
lowest_id_relay.reads = frozenset()  # type: ignore[attr-defined]


def best_battery_relay(directory: ContextDirectory,
                       candidates: Sequence[str]) -> str:
    """Energy-aware relay selection (paper §1, [20]): fullest battery wins;
    ties break deterministically by identifier."""
    def score(member: str) -> tuple[float, str]:
        battery = directory.value(member, BATTERY, default=0.0)
        return (-battery, member)
    return sorted(candidates, key=score)[0]


best_battery_relay.reads = frozenset({BATTERY})  # type: ignore[attr-defined]


#: Relay selectors addressable from declarative rule parameters.
RELAY_SELECTORS = {
    "lowest_id": lowest_id_relay,
    "best_battery": best_battery_relay,
}
