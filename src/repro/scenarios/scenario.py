"""Declarative dynamic-topology scenarios.

The paper's premise is that the communication stack should *re-adapt when
context changes* — yet a static testbed only ever exercises adaptation to
conditions chosen before t=0.  A :class:`Scenario` describes a whole
dynamic run declaratively: the topology (including nodes that join later),
a timed schedule of topology events (segment handoffs, churn, loss-model
swaps, partitions) and the chat workload phases.  The
:class:`~repro.scenarios.runner.ScenarioRunner` executes the schedule on
the simulation timeline, so every event lands at a deterministic virtual
instant and a scenario replayed with the same seed reproduces its run
exactly.

Everything here is plain data with validation — no simulator state — so
scenarios can be built, inspected, compared and stored independently of
any run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

VALID_KINDS = ("fixed", "mobile")
VALID_SEGMENTS = ("wired", "wireless")
VALID_LOSS_MODELS = ("none", "bernoulli", "gilbert_elliott")
#: Each named policy is one registered rule (see :mod:`repro.core.rules`).
POLICY_RULES = {"hybrid": "hybrid_mecho", "loss_adaptive": "loss_adaptive",
                "rotating": "battery_rotation"}
VALID_POLICIES = tuple(POLICY_RULES)
VALID_ORDERINGS = ("causal", "total")


@dataclass(frozen=True)
class LinkSpec:
    """A loss model by description, buildable deterministically per run.

    ``model`` is ``"none"``, ``"bernoulli"`` (params: ``probability``) or
    ``"gilbert_elliott"`` (params: ``p_good``, ``p_bad``,
    ``p_good_to_bad``, ``p_bad_to_good``).
    """

    model: str = "none"
    params: tuple[tuple[str, float], ...] = ()

    def validate(self, where: str) -> None:
        if self.model not in VALID_LOSS_MODELS:
            raise ValueError(
                f"{where}: unknown loss model {self.model!r} "
                f"(expected one of {VALID_LOSS_MODELS})")

    def as_dict(self) -> dict[str, float]:
        return dict(self.params)


def bernoulli(probability: float) -> LinkSpec:
    """Shorthand for an independent-loss link description."""
    return LinkSpec("bernoulli", (("probability", probability),))


def gilbert_elliott(**params: float) -> LinkSpec:
    """Shorthand for a bursty two-state link description."""
    return LinkSpec("gilbert_elliott", tuple(sorted(params.items())))


@dataclass(frozen=True)
class NodeSpec:
    """One device of the scenario.

    ``join_at`` of ``None`` means present from t=0; otherwise the node is
    created — and its Morpheus stack boots in joiner mode — at that virtual
    time.
    """

    node_id: str
    kind: str = "fixed"
    join_at: Optional[float] = None
    battery_mj: Optional[float] = None


@dataclass(frozen=True)
class ScenarioEvent:
    """Base of every scheduled topology event; ``at`` is virtual seconds."""

    at: float


@dataclass(frozen=True)
class Handoff(ScenarioEvent):
    """Move ``node`` to the other segment (``to``: ``fixed``/``mobile``)."""

    node: str = ""
    to: str = "mobile"


@dataclass(frozen=True)
class Crash(ScenarioEvent):
    """Fail-stop ``node`` (recoverable via :class:`Recover`)."""

    node: str = ""


@dataclass(frozen=True)
class Recover(ScenarioEvent):
    """Bring a crashed ``node`` back; the membership layer re-admits it."""

    node: str = ""


@dataclass(frozen=True)
class Leave(ScenarioEvent):
    """Graceful departure: leave flushes run, then — ``depart_after``
    seconds later — the node is removed from the network for good."""

    node: str = ""
    depart_after: float = 5.0


@dataclass(frozen=True)
class SetLoss(ScenarioEvent):
    """Swap one segment's loss model live (``segment``:
    ``wired``/``wireless``)."""

    segment: str = "wireless"
    link: LinkSpec = field(default_factory=LinkSpec)


@dataclass(frozen=True)
class Partition(ScenarioEvent):
    """Split the network into isolated groups of node ids."""

    groups: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class Heal(ScenarioEvent):
    """Remove any partition."""


@dataclass(frozen=True)
class ChatBurst:
    """One workload phase: ``count`` paced messages from ``sender``."""

    start: float
    sender: str
    count: int = 50
    interval: float = 0.5
    prefix: str = "m"


@dataclass(frozen=True)
class Scenario:
    """A complete dynamic-topology run description."""

    name: str
    duration_s: float
    nodes: tuple[NodeSpec, ...]
    events: tuple[ScenarioEvent, ...] = ()
    workload: tuple[ChatBurst, ...] = ()
    policy: str = "hybrid"
    policy_options: tuple[tuple[str, float], ...] = ()
    #: Declarative rule set overriding ``policy`` when non-empty: ordered
    #: ``(rule_name, ((param, value), ...))`` pairs resolved against the
    #: core rule registry at boot.  The fuzzer draws random-but-valid
    #: rule sets through this field.
    rules: tuple[tuple[str, tuple[tuple[str, float], ...]], ...] = ()
    #: Adaptation-governor parameters for the rule engine (``budget``,
    #: ``flap_limit``, ``window``, ``cooldown``); empty means ungoverned.
    governor: tuple[tuple[str, float], ...] = ()
    #: Ordering layers for the data stack (``"causal"``/``"total"``); the
    #: fuzzer uses it to exercise the reliable+total delivery invariants.
    ordering: tuple[str, ...] = ()
    wired: LinkSpec = field(default_factory=LinkSpec)
    wireless: LinkSpec = field(default_factory=LinkSpec)
    publish_interval: float = 2.0
    evaluate_interval: float = 2.0
    heartbeat_interval: float = 5.0
    nack_interval: float = 0.25

    # -- structure queries --------------------------------------------------

    def node_ids(self) -> tuple[str, ...]:
        return tuple(spec.node_id for spec in self.nodes)

    def initial_members(self) -> tuple[str, ...]:
        """Nodes present from t=0, sorted."""
        return tuple(sorted(spec.node_id for spec in self.nodes
                            if spec.join_at is None))

    def joiners(self) -> tuple[NodeSpec, ...]:
        """Late joiners, in join order (ties broken by id)."""
        late = [spec for spec in self.nodes if spec.join_at is not None]
        return tuple(sorted(late, key=lambda s: (s.join_at, s.node_id)))

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` on any structural inconsistency."""
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.duration_s <= 0:
            raise ValueError(f"non-positive duration: {self.duration_s}")
        if self.policy not in VALID_POLICIES:
            raise ValueError(f"unknown policy {self.policy!r} "
                             f"(expected one of {VALID_POLICIES})")
        for layer in self.ordering:
            if layer not in VALID_ORDERINGS:
                raise ValueError(f"unknown ordering layer {layer!r} "
                                 f"(expected one of {VALID_ORDERINGS})")
        for entry in self.rules:
            if not (isinstance(entry, tuple) and len(entry) == 2 and
                    isinstance(entry[0], str) and entry[0]):
                raise ValueError(
                    f"malformed rule entry {entry!r} (expected "
                    "(name, ((param, value), ...)))")
            for param in entry[1]:
                if not (isinstance(param, tuple) and len(param) == 2 and
                        isinstance(param[0], str)):
                    raise ValueError(
                        f"malformed rule parameter {param!r} in "
                        f"rule {entry[0]!r}")
        for param in self.governor:
            if not (isinstance(param, tuple) and len(param) == 2 and
                    isinstance(param[0], str)):
                raise ValueError(
                    f"malformed governor parameter {param!r}")
        if not self.initial_members():
            raise ValueError("scenario needs at least one t=0 node")
        seen: set[str] = set()
        for spec in self.nodes:
            if spec.node_id in seen:
                raise ValueError(f"duplicate node id {spec.node_id!r}")
            seen.add(spec.node_id)
            if spec.kind not in VALID_KINDS:
                raise ValueError(
                    f"node {spec.node_id!r}: unknown kind {spec.kind!r}")
            if spec.join_at is not None and \
                    not 0.0 < spec.join_at < self.duration_s:
                raise ValueError(
                    f"node {spec.node_id!r}: join_at {spec.join_at} outside "
                    f"(0, {self.duration_s})")
        self.wired.validate(f"scenario {self.name!r} wired link")
        self.wireless.validate(f"scenario {self.name!r} wireless link")
        for event in self.events:
            self._validate_event(event, seen)
        for burst in self.workload:
            if burst.sender not in seen:
                raise ValueError(f"workload sender {burst.sender!r} unknown")
            if burst.count <= 0 or burst.interval <= 0:
                raise ValueError(
                    f"workload burst at {burst.start}: count and interval "
                    "must be positive")
            if not 0.0 <= burst.start < self.duration_s:
                raise ValueError(
                    f"workload burst start {burst.start} outside the run")

    def _validate_event(self, event: ScenarioEvent, known: set[str]) -> None:
        where = f"event at {event.at}s"
        executable = (Handoff, Crash, Recover, Leave, SetLoss, Partition,
                      Heal)
        if not isinstance(event, executable):
            # Fail fast: the runner only knows these concrete event types.
            raise ValueError(
                f"{where}: {type(event).__name__} is not an executable "
                "scenario event")
        if not 0.0 <= event.at <= self.duration_s:
            raise ValueError(f"{where}: outside [0, {self.duration_s}]")
        node = getattr(event, "node", None)
        if node is not None and node not in known:
            raise ValueError(f"{where}: unknown node {node!r}")
        if isinstance(event, Handoff) and event.to not in VALID_KINDS:
            raise ValueError(f"{where}: unknown handoff target {event.to!r}")
        if isinstance(event, SetLoss):
            if event.segment not in VALID_SEGMENTS:
                raise ValueError(
                    f"{where}: unknown segment {event.segment!r}")
            event.link.validate(where)
        if isinstance(event, Partition):
            if len(event.groups) < 2:
                raise ValueError(f"{where}: a partition needs ≥ 2 groups")
            for group in event.groups:
                for member in group:
                    if member not in known:
                        raise ValueError(
                            f"{where}: unknown node {member!r} in partition")
