"""Seeded scenario fuzzing: property testing over the event grammar.

The determinism suite exercises five hand-written scenarios; the stale-view
class of membership bugs was found in them *by accident*.  This module
turns the suite into a search: a seeded generator draws valid
:class:`~repro.scenarios.scenario.Scenario` objects over the full event
grammar (handoffs, crashes, recoveries, leaves, loss swaps, partitions,
heals, chat bursts), every generated run is checked against a set of
always-on invariants, and a failing run is handed to the delta-debugging
shrinker (:mod:`repro.scenarios.shrink`) which minimizes it to a
replayable corpus file.

The invariants (installed through the
:class:`~repro.scenarios.runner.ScenarioRunner` ``invariants`` hook):

* **view agreement** — after the settle tail, every connected survivor of
  a partition component reports a control view equal to exactly the
  component's survivors;
* **delivery safety** — no node ever delivers a chat message twice, and
  per-sender burst indices are delivered in strictly increasing order
  (the reliable layer's FIFO contract); with ``ordering=("total",)``
  stacks, any two nodes additionally agree on the relative order of the
  messages they both delivered;
* **counter consistency** — network-level delivery accounting matches the
  per-NIC receive counters, and no packets are delivered or lost that
  were never sent;
* **flush liveness** — after the settle tail, every surviving node's
  membership is ``STABLE`` on every channel (a flush that never ends, or
  a hold flush that never releases its stack, trips it);
* **engine parity** — on a sampled subset of runs the scenario is
  replayed on the reference heap scheduler
  (:class:`~repro.simnet.engine.HeapSimEngine`) and the two
  :class:`~repro.scenarios.runner.ScenarioResult` records must compare
  equal (the timer wheel batches expiry, it must never reorder it).

Everything is deterministic: one ``(seed, index, mix)`` triple fully
determines the generated scenario *and* its run seed, so a fuzz failure
reported by CI replays bit-identically on a laptop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

from repro.kernel.channel import ChannelState
from repro.scenarios.runner import (InvariantViolation, ScenarioResult,
                                    ScenarioRunner, run_scenario)
from repro.scenarios.scenario import (ChatBurst, Crash, Handoff, Heal, Leave,
                                      LinkSpec, NodeSpec, Partition, Recover,
                                      Scenario, ScenarioEvent, SetLoss,
                                      bernoulli, gilbert_elliott)
from repro.simnet.engine import HeapSimEngine

#: Concrete event types of the grammar, by class name (serialization).
EVENT_TYPES = {cls.__name__: cls for cls in
               (Handoff, Crash, Recover, Leave, SetLoss, Partition, Heal)}


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzConfig:
    """Shape of the random scenarios one fuzz campaign draws.

    ``weights`` steers the event-kind distribution — the preset
    :data:`MIXES` make churn-heavy, partition-heavy and loss-heavy
    campaigns reachable without touching the grammar.  ``settle_s`` is the
    quiet tail after the last scheduled event/burst in which the group
    must converge before the invariants are checked; it is sized for the
    worst capped probe back-off plus a flush
    (:data:`repro.protocols.membership._PROBE_MAX_TICKS`).
    """

    min_nodes: int = 3
    max_nodes: int = 7
    max_joiners: int = 2
    min_events: int = 2
    max_events: int = 8
    max_bursts: int = 3
    event_window_s: float = 55.0
    #: Sized for the worst capped probe back-off (32 s at the default
    #: retry interval) plus two flush/merge rounds: merge chains after a
    #: late heal can legitimately need more than one probe cycle.
    settle_s: float = 75.0
    max_loss: float = 0.25
    #: Probability that a generated scenario stacks total order on top of
    #: the reliable layer (exercises the cross-node ordering invariant).
    ordering_p: float = 0.2
    #: Probability that a generated scenario carries a random declarative
    #: rule set (and, half the time, a governor) instead of the named
    #: policy — the ``--policy-fuzz`` campaign.  Zero keeps the draw
    #: stream byte-identical to pre-rules campaigns, so existing corpus
    #: entries regenerate unchanged.
    rules_p: float = 0.0
    weights: tuple[tuple[str, float], ...] = (
        ("handoff", 2.0), ("crash", 2.0), ("recover", 2.0), ("leave", 1.0),
        ("setloss", 1.5), ("partition", 1.0), ("heal", 2.0))


#: Preset weight profiles; ``--mix`` on the CLI selects one.
MIXES: dict[str, FuzzConfig] = {
    "uniform": FuzzConfig(),
    "churn": FuzzConfig(weights=(
        ("handoff", 1.0), ("crash", 4.0), ("recover", 4.0), ("leave", 2.0),
        ("setloss", 0.5), ("partition", 0.5), ("heal", 1.0))),
    "partition": FuzzConfig(weights=(
        ("handoff", 1.0), ("crash", 1.0), ("recover", 1.5), ("leave", 0.5),
        ("setloss", 0.5), ("partition", 4.0), ("heal", 5.0))),
    "loss": FuzzConfig(max_loss=0.3, weights=(
        ("handoff", 1.5), ("crash", 0.75), ("recover", 1.0), ("leave", 0.5),
        ("setloss", 5.0), ("partition", 0.5), ("heal", 1.0))),
}


class _GroupState:
    """What the generator knows about the group while drawing events."""

    def __init__(self, node_ids: Sequence[str], joiners: dict[str, float],
                 anchor: str) -> None:
        self.all_ids = tuple(node_ids)
        self.joiners = dict(joiners)      # id -> join_at
        self.anchor = anchor
        self.crashed: set[str] = set()
        self.left: set[str] = set()
        self.partitioned = False

    def present(self, at: float) -> list[str]:
        return [n for n in self.all_ids
                if n not in self.left and self.joiners.get(n, 0.0) < at]

    def alive(self, at: float) -> list[str]:
        return [n for n in self.present(at) if n not in self.crashed]

    def churnable(self, at: float) -> list[str]:
        """Nodes a crash/leave may target: alive, and never the anchor
        (one member always survives, so the group never dies out)."""
        return [n for n in self.alive(at) if n != self.anchor]


def _draw_loss(rng: random.Random, max_loss: float) -> LinkSpec:
    kind = rng.choices(("none", "bernoulli", "gilbert"),
                       weights=(1.0, 3.0, 1.0))[0]
    if kind == "none":
        return LinkSpec()
    if kind == "bernoulli":
        return bernoulli(round(rng.uniform(0.01, max_loss), 3))
    return gilbert_elliott(
        p_good=round(rng.uniform(0.0, 0.02), 3),
        p_bad=round(rng.uniform(0.1, max_loss + 0.15), 3),
        p_good_to_bad=round(rng.uniform(0.005, 0.05), 3),
        p_bad_to_good=round(rng.uniform(0.1, 0.4), 3))


def _draw_event(rng: random.Random, at: float, state: _GroupState,
                config: FuzzConfig) -> Optional[ScenarioEvent]:
    """One event at ``at``, of a kind applicable to the current state."""
    applicable: list[tuple[str, float]] = []
    for kind, weight in config.weights:
        if weight <= 0:
            continue
        if kind == "handoff" and not state.present(at):
            continue
        if kind == "crash" and not state.churnable(at):
            continue
        if kind == "recover" and not state.crashed:
            continue
        if kind == "leave" and (len(state.churnable(at)) < 2 or
                                len(state.alive(at)) < 3):
            continue  # keep at least two live members in the group
        if kind == "heal" and not state.partitioned:
            continue
        applicable.append((kind, weight))
    if not applicable:
        return None
    kinds, weights = zip(*applicable)
    kind = rng.choices(kinds, weights=weights)[0]
    if kind == "handoff":
        node = rng.choice(state.present(at))
        return Handoff(at, node=node, to=rng.choice(("fixed", "mobile")))
    if kind == "crash":
        node = rng.choice(state.churnable(at))
        state.crashed.add(node)
        return Crash(at, node=node)
    if kind == "recover":
        node = rng.choice(sorted(state.crashed))
        state.crashed.discard(node)
        return Recover(at, node=node)
    if kind == "leave":
        node = rng.choice(state.churnable(at))
        state.left.add(node)
        return Leave(at, node=node, depart_after=5.0)
    if kind == "setloss":
        return SetLoss(at, segment=rng.choice(("wired", "wireless")),
                       link=_draw_loss(rng, config.max_loss))
    if kind == "partition":
        ids = list(state.all_ids)
        rng.shuffle(ids)
        split = rng.randint(1, len(ids) - 1)
        state.partitioned = True
        return Partition(at, groups=(tuple(sorted(ids[:split])),
                                     tuple(sorted(ids[split:]))))
    state.partitioned = False
    return Heal(at)


def _draw_rules(rng: random.Random) -> tuple[tuple, tuple]:
    """A random-but-valid declarative rule set (plus optional governor).

    Every draw ends in a rule that always produces a plan, so a governed
    engine can only ever *defer* adaptation, never leave the coordinator
    without a decision path.
    """
    rules: list[tuple[str, tuple]] = []
    shape = rng.random()
    if shape < 0.15:
        # Degenerate-but-valid: the group pins itself to the plain stack.
        rules.append(("plain", ()))
    else:
        if rng.random() < 0.6:
            rules.append(("loss_adaptive", (
                ("threshold", round(rng.uniform(0.03, 0.15), 3)),
                ("hysteresis", round(rng.uniform(0.0, 0.05), 3)),
                ("k", rng.choice((4, 8))),
                ("m", rng.choice((1, 2))))))
        if rng.random() < 0.25:
            # Energy-aware draw; only acts when every member carries a
            # battery (generate_scenario equips the nodes when this rule
            # is drawn), otherwise it defers to the tail rule.
            rules.append(("battery_rotation", (
                ("hysteresis", round(rng.uniform(0.02, 0.15), 3)),)))
        rules.append(("hybrid_mecho", ()))
    governor: tuple = ()
    if rng.random() < 0.5:
        governor = (("budget", rng.randint(1, 4)),
                    ("flap_limit", rng.randint(1, 3)),
                    ("window", float(rng.choice((10.0, 20.0, 40.0)))),
                    ("cooldown", float(rng.choice((15.0, 30.0, 60.0)))))
    return tuple(rules), governor


def generate_scenario(seed: int, index: int, mix: str = "uniform",
                      config: Optional[FuzzConfig] = None) -> Scenario:
    """Draw one valid scenario, fully determined by ``(seed, index, mix)``.

    String seeding keeps the stream hash-randomization-independent, like
    the runner's derived RNGs — a corpus entry regenerates anywhere.
    """
    if config is None:
        config = MIXES[mix]
    rng = random.Random(f"scenario-fuzz:{seed}:{index}:{mix}")
    total = rng.randint(config.min_nodes, config.max_nodes)
    n_joiners = rng.randint(0, min(config.max_joiners, total - 2))
    node_ids = [f"n{i:02d}" for i in range(total)]
    joiner_ids = rng.sample(node_ids, n_joiners)
    event_lo, event_hi = 4.0, 4.0 + config.event_window_s
    nodes = []
    joiners: dict[str, float] = {}
    for node_id in node_ids:
        join_at = None
        if node_id in joiner_ids:
            join_at = round(rng.uniform(event_lo, event_hi * 0.6), 1)
            joiners[node_id] = join_at
        nodes.append(NodeSpec(node_id, rng.choice(("fixed", "mobile")),
                              join_at=join_at))
    initial = [n for n in node_ids if n not in joiners]
    state = _GroupState(node_ids, joiners, anchor=rng.choice(initial))

    times = sorted(round(rng.uniform(event_lo, event_hi), 1)
                   for _ in range(rng.randint(config.min_events,
                                              config.max_events)))
    events = []
    for at in times:
        event = _draw_event(rng, at, state, config)
        if event is not None:
            events.append(event)

    bursts = []
    for i in range(rng.randint(1, config.max_bursts)):
        # The first burst always flows from the anchor: every run carries
        # traffic from a member that survives to the horizon.
        sender = state.anchor if i == 0 else rng.choice(initial)
        bursts.append(ChatBurst(
            start=round(rng.uniform(1.0, event_hi * 0.8), 1),
            sender=sender, count=rng.randint(10, 40),
            interval=rng.choice((0.2, 0.25, 0.4, 0.5)), prefix=f"b{i}"))

    ordering = ("total",) if rng.random() < config.ordering_p else ()
    # Short-circuit keeps the draw stream untouched when rules_p is zero,
    # so pre-rules corpus entries regenerate byte-identically.
    rules: tuple = ()
    governor: tuple = ()
    if config.rules_p > 0 and rng.random() < config.rules_p:
        rules, governor = _draw_rules(rng)
        if any(name == "battery_rotation" for name, _ in rules):
            # The rotation rule needs battery coverage across the whole
            # group to act; equip every node with a finite charge so the
            # energy path is actually exercised.
            nodes = [replace(spec,
                             battery_mj=float(rng.randint(150, 400)))
                     for spec in nodes]
    horizon = max([event_hi] + [b.start + b.count * b.interval
                                for b in bursts])
    # A battery that runs out is an unscheduled topology change, and one
    # inside the settle tail leaves the group no time to converge after
    # it.  Every battery-powered node docks at the horizon instead: on
    # the wire its battery stops draining (and a drained one stops
    # mattering), so the last possible death is at the horizon and a
    # full tail follows it.
    dock_at = math.floor(horizon * 10) / 10
    events.extend(Handoff(dock_at, node=spec.node_id, to="fixed")
                  for spec in nodes if spec.battery_mj is not None)
    return Scenario(
        name=f"fuzz-{mix}-{seed}-{index}",
        duration_s=round(horizon + config.settle_s, 1),
        nodes=tuple(nodes),
        events=tuple(events),
        workload=tuple(bursts),
        ordering=ordering,
        rules=rules,
        governor=governor,
        wireless=bernoulli(0.02),
        heartbeat_interval=1.0,
    )


def run_seed_for(seed: int, index: int) -> int:
    """The run seed paired with generated scenario ``(seed, index)``."""
    return random.Random(f"scenario-fuzz-run:{seed}:{index}").randrange(1 << 30)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def final_components(scenario: Scenario) -> list[set[str]]:
    """Partition components in force at the horizon (all ids when whole)."""
    groups: Optional[tuple[tuple[str, ...], ...]] = None
    for event in sorted(scenario.events, key=lambda e: e.at):
        if isinstance(event, Partition):
            groups = event.groups
        elif isinstance(event, Heal):
            groups = None
    everyone = set(scenario.node_ids())
    if groups is None:
        return [everyone]
    components = [set(group) for group in groups]
    uncovered = everyone - set().union(*components)
    # A node in no group is unreachable from every group: its own island.
    components.extend({node} for node in sorted(uncovered))
    return components


def check_view_agreement(runner: ScenarioRunner,
                         result: ScenarioResult) -> list[str]:
    """Connected survivors of each component agree on exactly the
    component's survivor set as their control view.

    A joiner that never entered any view is not yet a member: the join
    design solicits admission indefinitely and installs nothing until
    admitted, so an isolated joiner (nobody in its component to admit
    it) legitimately ends the run viewless.  Such nodes are outside the
    agreement check — but when the component *does* hold established
    members, a forever-unadmitted joiner is a liveness violation of its
    own (``join-liveness``).
    """
    violations = []
    network = runner.network
    survivors = {node_id for node_id, node in network.nodes.items()
                 if node.alive}
    never_joined = set()
    for node_id, node in runner.morpheus.items():
        membership = node.control_channel.session_named("membership")
        if membership is not None and membership.view is None:
            never_joined.add(node_id)
    for component in final_components(runner.scenario):
        members = sorted(survivors & component)
        established = tuple(m for m in members if m not in never_joined)
        for node_id in established:
            view = result.control_views.get(node_id)
            if view != established:
                violations.append(
                    f"view-agreement: {node_id} ended with control view "
                    f"{view}, expected {established}")
        if established:
            for node_id in members:
                if node_id in never_joined:
                    violations.append(
                        f"join-liveness: {node_id} was never admitted "
                        f"although its component has established members "
                        f"{established}")
    return violations


def _burst_index(text: str) -> Optional[tuple[str, int]]:
    prefix, sep, index = text.rpartition("-")
    if sep and prefix and index.isdigit():
        return prefix, int(index)
    return None


def check_delivery(runner: ScenarioRunner,
                   result: ScenarioResult) -> list[str]:
    """No duplicate deliveries; per-sender burst indices strictly increase
    (reliable FIFO); under total order, common deliveries agree pairwise."""
    violations = []
    sequences: dict[str, list[tuple[str, str]]] = {}
    for node_id in sorted(runner.morpheus):
        history = runner.morpheus[node_id].chat.history
        seen: set[tuple[str, str]] = set()
        high: dict[tuple[str, str], int] = {}
        sequence: list[tuple[str, str]] = []
        for delivery in history:
            key = (delivery.source, delivery.text)
            if key in seen:
                violations.append(
                    f"delivery-dup: {node_id} delivered {delivery.text!r} "
                    f"from {delivery.source} twice")
                continue
            seen.add(key)
            sequence.append(key)
            parsed = _burst_index(delivery.text)
            if parsed is None:
                continue
            prefix, index = parsed
            stream = (delivery.source, prefix)
            if index <= high.get(stream, -1):
                violations.append(
                    f"delivery-order: {node_id} delivered "
                    f"{delivery.text!r} from {delivery.source} after index "
                    f"{high[stream]} of the same stream")
            else:
                high[stream] = index
        sequences[node_id] = sequence
    if "total" in runner.scenario.ordering:
        nodes = sorted(sequences)
        for i, first in enumerate(nodes):
            for second in nodes[i + 1:]:
                common = set(sequences[first]) & set(sequences[second])
                a = [x for x in sequences[first] if x in common]
                b = [x for x in sequences[second] if x in common]
                if a != b:
                    violations.append(
                        f"total-order: {first} and {second} disagree on "
                        "the relative order of commonly delivered messages")
    return violations


def check_counters(runner: ScenarioRunner,
                   result: ScenarioResult) -> list[str]:
    """Network delivery accounting matches the per-NIC counters."""
    violations = []
    recv_total = sum(s.get("recv_total", 0) for s in result.stats.values())
    if recv_total != result.delivered_packets:
        violations.append(
            f"counter: per-NIC receive total {recv_total} != network "
            f"delivered_packets {result.delivered_packets}")
    sent_total = sum(s.get("sent_total", 0) for s in result.stats.values())
    outcome = result.delivered_packets + result.lost_packets
    if outcome > sent_total:
        violations.append(
            f"counter: {outcome} packets delivered+lost but only "
            f"{sent_total} ever sent")
    return violations


def check_flush_liveness(runner: ScenarioRunner,
                         result: ScenarioResult) -> list[str]:
    """After the settle tail, every surviving node's membership is
    ``STABLE`` on every channel: no flush is still running and no hold
    flush is still waiting for its release."""
    violations = []
    for node_id in sorted(runner.morpheus):
        node = runner.network.nodes.get(node_id)
        if node is None or not node.alive:
            continue
        instance = runner.morpheus[node_id]
        for channel in (instance.control_channel,
                        instance.local_module.data_channel):
            if channel is None or channel.state is not ChannelState.STARTED:
                continue
            membership = channel.session_named("membership")
            if membership is not None and membership.phase.value != "stable":
                violations.append(
                    f"flush-liveness: {node_id} ended with its "
                    f"{channel.name} membership {membership.phase.value}")
    return violations


#: The always-on invariant set the fuzzer installs on every run.
ALWAYS_ON = (check_view_agreement, check_delivery, check_counters,
             check_flush_liveness)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def fuzz_oracle(scenario: Scenario, run_seed: int,
                parity: bool = False) -> list[str]:
    """Run ``scenario`` under the invariant set; return its violations.

    With ``parity=True`` the scenario is additionally replayed on the
    reference heap engine and the two results compared for equality.
    The shrinker uses this as its test function.
    """
    try:
        result = run_scenario(scenario, seed=run_seed,
                              invariants=ALWAYS_ON)
    except InvariantViolation as exc:
        return list(exc.violations)
    if parity:
        heap = run_scenario(scenario, seed=run_seed,
                            engine_factory=HeapSimEngine)
        if heap != result:
            return ["engine-parity: wheel and heap engines diverged on "
                    "the same scenario"]
    return []


@dataclass
class FuzzOutcome:
    """One generated run's verdict (and its shrink, when it failed)."""

    index: int
    scenario: Scenario
    run_seed: int
    violations: tuple[str, ...] = ()
    parity_checked: bool = False
    shrunk: Optional[Scenario] = None
    shrunk_violations: tuple[str, ...] = ()
    corpus_path: Optional[str] = None

    @property
    def failed(self) -> bool:
        return bool(self.violations)


def run_fuzz(seed: int, runs: int, mix: str = "uniform",
             config: Optional[FuzzConfig] = None,
             parity_every: int = 5,
             shrink_failures: bool = False,
             corpus_dir: Optional[str] = None,
             max_shrink_tests: int = 200,
             log: Callable[[str], None] = lambda line: None) -> list[FuzzOutcome]:
    """The fuzz campaign: generate, run, check, shrink, emit corpus.

    ``parity_every`` samples every N-th run for the wheel/heap replay
    (0 disables).  With ``shrink_failures`` every failing run is minimized
    with :func:`repro.scenarios.shrink.shrink_scenario` and — when
    ``corpus_dir`` is given — written there as a replayable corpus file.
    """
    from repro.scenarios.shrink import (shrink_scenario,
                                        violation_categories,
                                        write_corpus_file)
    outcomes = []
    for index in range(runs):
        scenario = generate_scenario(seed, index, mix=mix, config=config)
        run_seed = run_seed_for(seed, index)
        parity = parity_every > 0 and index % parity_every == 0
        violations = fuzz_oracle(scenario, run_seed, parity=parity)
        outcome = FuzzOutcome(index=index, scenario=scenario,
                              run_seed=run_seed,
                              violations=tuple(violations),
                              parity_checked=parity)
        if violations:
            log(f"run {index}: FAIL {scenario.name} "
                f"({len(scenario.events)} events) — {violations[0]}")
            if shrink_failures:
                # The heap replay doubles every candidate's cost; shrink
                # with it only when parity is what actually failed.
                parity_failed = "engine-parity" in \
                    violation_categories(violations)
                shrunk = shrink_scenario(
                    scenario, run_seed, violations, parity=parity_failed,
                    max_tests=max_shrink_tests, log=log)
                outcome.shrunk = shrunk.scenario
                outcome.shrunk_violations = tuple(shrunk.violations)
                if corpus_dir is not None:
                    outcome.corpus_path = write_corpus_file(
                        corpus_dir, shrunk.scenario, run_seed,
                        shrunk.violations, parity=parity_failed)
                    log(f"run {index}: shrunk to "
                        f"{len(shrunk.scenario.events)} events, corpus at "
                        f"{outcome.corpus_path}")
        else:
            log(f"run {index}: ok {scenario.name} "
                f"({len(scenario.nodes)} nodes, {len(scenario.events)} "
                f"events{', parity' if parity else ''})")
        outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# Serialization (corpus files)
# ---------------------------------------------------------------------------

def _link_to_dict(link: LinkSpec) -> dict:
    return {"model": link.model, "params": [list(p) for p in link.params]}


def _known(cls: type, data: dict, what: str, extra: tuple = ()) -> dict:
    """``data`` when every key is a field of ``cls`` (or in ``extra``);
    otherwise ``ValueError`` naming ``what`` and each unknown key."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)} - set(extra))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    return data


def _link_from_dict(data: dict) -> LinkSpec:
    _known(LinkSpec, data, "link")
    return LinkSpec(data["model"],
                    tuple((name, value) for name, value in data["params"]))


def _event_to_dict(event: ScenarioEvent) -> dict:
    data: dict = {"type": type(event).__name__, "at": event.at}
    if isinstance(event, (Handoff, Crash, Recover, Leave)):
        data["node"] = event.node
    if isinstance(event, Handoff):
        data["to"] = event.to
    if isinstance(event, Leave):
        data["depart_after"] = event.depart_after
    if isinstance(event, SetLoss):
        data["segment"] = event.segment
        data["link"] = _link_to_dict(event.link)
    if isinstance(event, Partition):
        data["groups"] = [list(group) for group in event.groups]
    return data


def _event_from_dict(data: dict) -> ScenarioEvent:
    cls = EVENT_TYPES.get(data["type"])
    if cls is None:
        raise ValueError(f"unknown event type {data['type']!r}")
    _known(cls, data, f"{data['type']} event", extra=("type",))
    kwargs = {key: value for key, value in data.items() if key != "type"}
    if "link" in kwargs:
        kwargs["link"] = _link_from_dict(kwargs["link"])
    if "groups" in kwargs:
        kwargs["groups"] = tuple(tuple(group) for group in kwargs["groups"])
    return cls(**kwargs)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-JSON shape of a scenario (corpus files, artifacts)."""
    return {
        "name": scenario.name,
        "duration_s": scenario.duration_s,
        "nodes": [{"node_id": spec.node_id, "kind": spec.kind,
                   "join_at": spec.join_at, "battery_mj": spec.battery_mj}
                  for spec in scenario.nodes],
        "events": [_event_to_dict(event) for event in scenario.events],
        "workload": [{"start": burst.start, "sender": burst.sender,
                      "count": burst.count, "interval": burst.interval,
                      "prefix": burst.prefix}
                     for burst in scenario.workload],
        "policy": scenario.policy,
        "policy_options": [list(p) for p in scenario.policy_options],
        "rules": [[name, [list(p) for p in params]]
                  for name, params in scenario.rules],
        "governor": [list(p) for p in scenario.governor],
        "ordering": list(scenario.ordering),
        "wired": _link_to_dict(scenario.wired),
        "wireless": _link_to_dict(scenario.wireless),
        "publish_interval": scenario.publish_interval,
        "evaluate_interval": scenario.evaluate_interval,
        "heartbeat_interval": scenario.heartbeat_interval,
        "nack_interval": scenario.nack_interval,
    }


#: The keys :func:`scenario_to_dict` writes; the optional ones may be
#: absent from older files.
SCENARIO_KEYS = frozenset((
    "name", "duration_s", "nodes", "events", "workload", "policy",
    "policy_options", "rules", "governor", "ordering", "wired", "wireless",
    "publish_interval", "evaluate_interval", "heartbeat_interval",
    "nack_interval"))


def scenario_from_dict(data: dict) -> Scenario:
    """Rebuild (and validate) a scenario from its JSON shape.

    A key this shape does not know, at the top or in a node, event,
    burst or link, and an event type it does not know, raise
    ``ValueError`` naming them: a file written for a scenario shape this
    code cannot run must not load as a different scenario and pass in
    silence.
    """
    unknown = sorted(set(data) - SCENARIO_KEYS)
    if unknown:
        raise ValueError(f"scenario {data.get('name')!r} has unknown "
                         f"keys {unknown}")
    scenario = Scenario(
        name=data["name"],
        duration_s=data["duration_s"],
        nodes=tuple(NodeSpec(**_known(NodeSpec, spec, "node"))
                    for spec in data["nodes"]),
        events=tuple(_event_from_dict(event) for event in data["events"]),
        workload=tuple(ChatBurst(**_known(ChatBurst, burst, "burst"))
                       for burst in data["workload"]),
        policy=data.get("policy", "hybrid"),
        policy_options=tuple(tuple(p) for p in data.get("policy_options", [])),
        rules=tuple((name, tuple(tuple(p) for p in params))
                    for name, params in data.get("rules", [])),
        governor=tuple(tuple(p) for p in data.get("governor", [])),
        ordering=tuple(data.get("ordering", [])),
        wired=_link_from_dict(data["wired"]),
        wireless=_link_from_dict(data["wireless"]),
        publish_interval=data["publish_interval"],
        evaluate_interval=data["evaluate_interval"],
        heartbeat_interval=data["heartbeat_interval"],
        nack_interval=data["nack_interval"],
    )
    scenario.validate()
    return scenario
