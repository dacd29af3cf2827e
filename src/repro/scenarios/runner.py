"""Scenario execution: a declarative schedule on the simulation timeline.

The :class:`ScenarioRunner` builds the simulated network from a
:class:`~repro.scenarios.scenario.Scenario`, boots one Morpheus node per
t=0 member, schedules every topology event and workload burst at its
virtual instant, and runs the engine to the scenario horizon.  Everything
it records lands in a :class:`ScenarioResult` built from plain tuples and
dicts, so two results compare with ``==`` — the determinism contract is
*result equality under equal seeds*.

Event semantics on the live system:

* **handoff** — :meth:`Network.move_node`; the context layer disseminates
  the changed ``device_type`` immediately (event-driven republish) and the
  Core coordinator's policy reconfigures the stack;
* **join** — the node and its Morpheus stack are created mid-run in joiner
  mode; the control group admits it and the coordinator redeploys the data
  configuration with the grown membership;
* **leave** — graceful leave flushes on both channels, then the node is
  removed from the network;
* **crash / recover** — fail-stop and return; the membership layer excludes
  and later re-admits the node;
* **loss swap / partition / heal** — network-level context changes that the
  policies observe through the disseminated attributes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.morpheus import MorpheusNode
from repro.kernel.group import scoped_name
from repro.simnet.energy import Battery
from repro.core.rules import (PolicyEngine, build_rule, governor_from_params)
from repro.simnet.engine import SimEngine
from repro.simnet.loss import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss
from repro.simnet.network import LinkParams, Network, TopologyChange
from repro.simnet.node import NodeKind
from repro.scenarios.scenario import (POLICY_RULES, ChatBurst, Crash,
                                      Handoff, Heal, Leave, LinkSpec,
                                      Partition, Recover, Scenario,
                                      ScenarioEvent, SetLoss)


def build_loss_model(spec: LinkSpec, rng: random.Random,
                     seed_base: str | None = None) -> LossModel:
    """Instantiate the loss model a :class:`LinkSpec` describes.

    ``seed_base`` enables per-sender draw streams (see
    :mod:`repro.simnet.loss`): the simulated network spawns one stream per
    sending node, keyed only by seed/segment/sender — deliberately *not*
    by scenario name — so a node's loss draws are identical whether its
    segment runs solo or combined with other segments in one engine.
    """
    params = spec.as_dict()
    if spec.model == "bernoulli":
        return BernoulliLoss(params.get("probability", 0.0), rng,
                             seed_base=seed_base)
    if spec.model == "gilbert_elliott":
        return GilbertElliottLoss(rng, seed_base=seed_base, **params)
    return NoLoss()


class InvariantViolation(AssertionError):
    """A completed run broke at least one always-on invariant.

    Raised by :meth:`ScenarioRunner.run` when invariant checks were
    installed and any of them reported violations.  Carries the finished
    :class:`ScenarioResult` so the caller (the fuzzer, a test) can inspect
    and shrink the run that failed.
    """

    def __init__(self, violations: Sequence[str],
                 result: "ScenarioResult") -> None:
        super().__init__("; ".join(violations))
        self.violations = tuple(violations)
        self.result = result


#: An invariant check: called with the finished runner (network, morpheus
#: nodes and scenario still live) and the collected result; returns a list
#: of human-readable violation strings — empty when the invariant holds.
InvariantCheck = Callable[["ScenarioRunner", "ScenarioResult"], list]


@dataclass
class ScenarioResult:
    """Everything one scenario run produced; ``==`` is the determinism
    contract (two runs with equal seeds must compare equal)."""

    name: str
    seed: int
    duration_s: float
    #: Formatted topology-change and reconfiguration log, time-ordered.
    trace: tuple[str, ...] = ()
    #: Completed group-wide reconfigurations: (time, coordinator, config).
    reconfigurations: tuple[tuple[float, str, str], ...] = ()
    #: Data-stack composition per node over time: (time, layer names).
    stack_history: dict[str, tuple[tuple[float, tuple[str, ...]], ...]] = \
        field(default_factory=dict)
    #: Chat deliveries per node, in delivery order.
    texts: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: NIC counter snapshot per node (departed nodes included).
    stats: dict[str, dict] = field(default_factory=dict)
    #: Final control-group membership as each surviving node sees it.
    control_views: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Final deployed configuration name per surviving node.
    deployed: dict[str, str] = field(default_factory=dict)
    #: Federation: final cell rosters (empty for flat single-group runs).
    cells: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Federation: final gateway per cell.
    gateways: dict[str, str] = field(default_factory=dict)
    delivered_packets: int = 0
    lost_packets: int = 0
    engine_events: int = 0
    #: Kernel timer-event dispatches summed over all nodes — the share of
    #: ``engine_events`` attributable to timer ticks (probe retries,
    #: heartbeats, NACK rounds).  The timer-wheel benchmark tracks this.
    timer_events: int = 0
    topology_epoch: int = 0

    def reconfiguration_count(self) -> int:
        return len(self.reconfigurations)

    def stacks_of(self, node_id: str) -> tuple[tuple[str, ...], ...]:
        """Distinct successive stack compositions one node ran."""
        history = self.stack_history.get(node_id, ())
        compositions: list[tuple[str, ...]] = []
        for _, stack in history:
            if not compositions or compositions[-1] != stack:
                compositions.append(stack)
        return tuple(compositions)

    def summary(self) -> dict:
        """Compact shape for tables and benchmarks."""
        sent = sum(s.get("sent_total", 0) for s in self.stats.values())
        return {
            "scenario": self.name,
            "nodes": len(self.stats),
            "events": len(self.trace),
            "reconfigurations": self.reconfiguration_count(),
            "sent": sent,
            "delivered": self.delivered_packets,
            "lost": self.lost_packets,
        }


class ScenarioRunner:
    """Executes one :class:`Scenario` deterministically.

    Args:
        scenario: the declarative run description (validated on entry).
        seed: run seed — feeds the network RNG and every loss model built
            for the run, each through a stable per-purpose derivation.
        engine_factory: constructor of the discrete-event engine; defaults
            to :class:`~repro.simnet.engine.SimEngine`.  The timer-wheel
            benchmark passes the reference heap scheduler here to prove
            the two engines drive bit-identical runs.
        invariants: checks run after every completed run, while the
            network and Morpheus nodes are still inspectable.  Each is
            called with ``(runner, result)`` and returns a list of
            violation strings; any non-empty list makes :meth:`run` raise
            :class:`InvariantViolation` (carrying the result).  The fuzzer
            installs its always-on invariant set here.
    """

    def __init__(self, scenario: Scenario, seed: int = 0,
                 engine_factory=SimEngine,
                 invariants: Sequence[InvariantCheck] = ()) -> None:
        scenario.validate()
        self.scenario = scenario
        self.seed = seed
        self.engine_factory = engine_factory
        self.invariants = tuple(invariants)
        self.engine = None
        self.network: Optional[Network] = None
        self.morpheus: dict[str, MorpheusNode] = {}
        self._trace: list[str] = []
        self._reconfigs: list[tuple[float, str, str]] = []
        self._stack_history: dict[str, list[tuple[float, tuple[str, ...]]]] \
            = {}

    # -- deterministic derived randomness -----------------------------------

    def _rng(self, purpose: str) -> random.Random:
        # String seeding is hash-randomization-independent (seeded through
        # a digest), so derived streams replay across processes.
        return random.Random(f"{self.seed}:{self.scenario.name}:{purpose}")

    # -- construction --------------------------------------------------------

    def _link(self, spec: LinkSpec, segment: str) -> LinkParams:
        loss = build_loss_model(spec, self._rng(f"loss:{segment}"),
                                seed_base=f"{self.seed}:{segment}")
        if segment == "wired":
            return LinkParams(latency_s=0.0005, bandwidth_bps=100e6,
                              loss=loss)
        return LinkParams(latency_s=0.002, bandwidth_bps=11e6, loss=loss)

    def _make_policy(self, group: str = "") -> PolicyEngine:
        stack_options = {
            "heartbeat_interval": self.scenario.heartbeat_interval,
            "nack_interval": self.scenario.nack_interval,
            "ordering": tuple(self.scenario.ordering),
        }
        if group:
            # Federation: every template a policy builds for this node
            # keys the suite epoch by the cell's scoped data-group id.
            stack_options["group"] = scoped_name("data", group)
            stack_options["app_params"] = self._app_params()
        # A declarative rule set (the policy-fuzz path) runs as drawn,
        # governed by the scenario's governor parameters; otherwise the
        # named policy is one rule, tuned by the policy options, and
        # ungoverned (a federated scenario spends its governor parameters
        # on cell reshapes).  Either way every rule resolves against the
        # registry.
        scenario = self.scenario
        rules = scenario.rules or (
            (POLICY_RULES[scenario.policy], scenario.policy_options),)
        governor = governor_from_params(dict(scenario.governor)) \
            if scenario.rules else None
        return PolicyEngine(tuple(build_rule(name, dict(params), stack_options)
                                  for name, params in rules),
                            governor=governor)

    def _build_network(self):
        """Backend hook: construct the run's network on ``self.engine``.

        The live runner (:class:`repro.livenet.runner.LiveScenarioRunner`)
        overrides this (and :meth:`run`) — everything else in the runner
        is written against :class:`~repro.simnet.network.NetworkBase`
        and runs on either backend unchanged.
        """
        scenario = self.scenario
        return Network(
            self.engine,
            wired=self._link(scenario.wired, "wired"),
            wireless=self._link(scenario.wireless, "wireless"))

    def _add_node(self, spec) -> None:
        assert self.network is not None
        battery = Battery(capacity_mj=spec.battery_mj) \
            if spec.battery_mj is not None else None
        kind = NodeKind.MOBILE if spec.kind == "mobile" else NodeKind.FIXED
        self.network.add_node(spec.node_id, kind, battery=battery)

    def _app_params(self) -> dict:
        """Extra chat-layer parameters; the federation runner overrides."""
        return {}

    def _boot_morpheus(self, node_id: str, members, joining: bool,
                       group: str = "",
                       adopt: Optional[dict] = None) -> MorpheusNode:
        scenario = self.scenario
        node = MorpheusNode(
            self.network, node_id, members,
            policy=self._make_policy(group=group),
            ordering=tuple(scenario.ordering),
            publish_interval=scenario.publish_interval,
            evaluate_interval=scenario.evaluate_interval,
            heartbeat_interval=scenario.heartbeat_interval,
            nack_interval=scenario.nack_interval,
            joining=joining,
            group=group,
            app_params=self._app_params() if group else None)
        if adopt is not None:
            # Cell re-formation: the node keeps its delivered history and
            # federation sequence numbering across the group change.
            node.chat.adopt(adopt)
        self.morpheus[node_id] = node
        history = self._stack_history.setdefault(node_id, [])
        history.append((self.engine.now(), tuple(node.current_stack())))
        node.core.on_reconfigured = \
            lambda name, n=node_id: self._on_reconfigured(n, name)
        self._after_boot(node)
        return node

    def _after_boot(self, node: MorpheusNode) -> None:
        """Subclass hook after a node instance boots (federation glue)."""

    # -- live hooks ----------------------------------------------------------

    def _on_reconfigured(self, coordinator: str, name: str) -> None:
        now = self.engine.now()
        self._reconfigs.append((now, coordinator, name))
        self._trace.append(f"{now:9.3f}s reconfigured to {name} "
                           f"(coordinator {coordinator})")
        for node_id in sorted(self.morpheus):
            node = self.morpheus[node_id]
            self._stack_history[node_id].append(
                (now, tuple(node.current_stack())))

    def _on_topology(self, change: TopologyChange) -> None:
        self._trace.append(f"{self.engine.now():9.3f}s {change.format()}")

    # -- event application ---------------------------------------------------

    def _apply(self, event: ScenarioEvent, index: int) -> None:
        network = self.network
        assert network is not None
        target = getattr(event, "node", None)
        if target is not None and target not in network.nodes:
            # The target is absent: it departed (a Leave earlier in the
            # schedule removed it) or it has not joined yet (join_at later
            # than this event).  validate() cannot see ordering, so
            # tolerate both here — traced with the actual reason, the same
            # way _depart tolerates a node that already left.
            reason = "departed" if target in network.departed \
                else "not joined yet"
            self._trace.append(
                f"{self.engine.now():9.3f}s skipped "
                f"{type(event).__name__.lower()} {target} ({reason})")
            return
        if isinstance(event, Handoff):
            kind = NodeKind.MOBILE if event.to == "mobile" else NodeKind.FIXED
            network.move_node(event.node, kind)
        elif isinstance(event, Crash):
            network.crash_node(event.node)
        elif isinstance(event, Recover):
            network.recover_node(event.node)
        elif isinstance(event, Leave):
            self.morpheus[event.node].leave()
            self.engine.call_later(
                event.depart_after,
                lambda: self._depart(event.node))
        elif isinstance(event, SetLoss):
            model = build_loss_model(
                event.link, self._rng(f"loss-swap:{index}"),
                seed_base=f"{self.seed}:{event.segment}:swap{index}")
            if event.segment == "wired":
                network.set_wired_loss(model)
            else:
                network.set_wireless_loss(model)
        elif isinstance(event, Partition):
            network.partition(*event.groups)
        elif isinstance(event, Heal):
            network.heal_partition()
        else:  # pragma: no cover - scenario.validate() rejects these
            raise TypeError(f"unknown scenario event {event!r}")

    def _depart(self, node_id: str) -> None:
        if node_id in self.network.nodes:
            self.network.remove_node(node_id)

    def _join(self, spec) -> None:
        self._add_node(spec)
        # Bootstrap peers: the *live* group (left nodes solicit nobody).
        live = set(self.morpheus) & set(self.network.nodes)
        members = sorted(live | {spec.node_id})
        self._boot_morpheus(spec.node_id, members, joining=True)

    # -- the run itself -------------------------------------------------------

    def run(self) -> ScenarioResult:
        self.engine = self.engine_factory()
        self.network = self._build_network()
        self._populate()
        self._schedule()
        self.engine.run_until(self.scenario.duration_s)
        return self._finalize()

    def _populate(self) -> None:
        """Create the t=0 nodes and boot their Morpheus stacks."""
        for spec in self.scenario.nodes:
            if spec.join_at is None:
                self._add_node(spec)
        initial = self.scenario.initial_members()
        for node_id in initial:
            self._boot_morpheus(node_id, initial, joining=False)
        # Trace topology changes from here on (bootstrapping is not news).
        self.network.subscribe_topology(self._on_topology)

    def _schedule(self) -> None:
        """Queue every join, topology event and workload burst."""
        for spec in self.scenario.joiners():
            self.engine.call_at(spec.join_at, lambda s=spec: self._join(s))
        for index, event in enumerate(self.scenario.events):
            self.engine.call_at(event.at,
                                lambda e=event, i=index: self._apply(e, i))
        for burst in self.scenario.workload:
            self._schedule_burst(burst)

    def _finalize(self) -> ScenarioResult:
        """Collect the result and enforce the installed invariants."""
        result = self._collect()
        if self.invariants:
            violations: list[str] = []
            for check in self.invariants:
                violations.extend(check(self, result))
            if violations:
                raise InvariantViolation(violations, result)
        return result

    def _schedule_burst(self, burst: ChatBurst) -> None:
        def send(index: int) -> None:
            sender = self.morpheus.get(burst.sender)
            if sender is not None and sender.node.alive:
                sender.send(f"{burst.prefix}-{index}")

        for index in range(burst.count):
            when = burst.start + index * burst.interval
            if when >= self.scenario.duration_s:
                break
            self.engine.call_at(when, lambda i=index: send(i))

    # -- collection ------------------------------------------------------------

    def _collect(self) -> ScenarioResult:
        network = self.network
        assert network is not None and self.engine is not None
        result = ScenarioResult(
            name=self.scenario.name, seed=self.seed,
            duration_s=self.scenario.duration_s,
            trace=tuple(self._trace),
            reconfigurations=tuple(self._reconfigs),
            stack_history={node_id: tuple(history) for node_id, history
                           in sorted(self._stack_history.items())},
            texts={node_id: tuple(node.chat.texts()) for node_id, node
                   in sorted(self.morpheus.items())},
            stats={node_id: network.stats_of(node_id).snapshot()
                   for node_id in sorted(self._stack_history)},
            control_views={node_id: tuple(node.core.members)
                           for node_id, node in sorted(self.morpheus.items())
                           if node_id in network.nodes},
            deployed={node_id: node.core.deployed_name
                      for node_id, node in sorted(self.morpheus.items())
                      if node_id in network.nodes},
            delivered_packets=network.delivered_packets,
            lost_packets=network.lost_packets,
            engine_events=self.engine.fired_count,
            timer_events=sum(
                node.node.kernel.timer_dispatched_count
                for _, node in sorted(self.morpheus.items())),
            topology_epoch=network.topology_epoch)
        return result


def run_scenario(scenario: Scenario, seed: int = 0,
                 engine_factory=SimEngine,
                 invariants: Sequence[InvariantCheck] = (),
                 backend: str = "sim",
                 **live_options) -> ScenarioResult:
    """One-call convenience: build a runner and execute the scenario.

    ``backend`` selects the transport: ``"sim"`` (default) runs on the
    deterministic simulator; ``"live"`` replays the same scenario over
    real asyncio UDP sockets with the simulator's link model applied
    (``**live_options`` — e.g. ``time_scale`` — reach
    :class:`repro.livenet.runner.LiveScenarioRunner`).
    """
    if backend == "live":
        from repro.livenet.runner import LiveScenarioRunner
        return LiveScenarioRunner(scenario, seed=seed,
                                  invariants=invariants,
                                  **live_options).run()
    if backend != "sim":
        raise ValueError(f"unknown backend {backend!r}; "
                         "expected 'sim' or 'live'")
    if scenario.cells > 0:
        from repro.federation.runner import FederationRunner
        return FederationRunner(scenario, seed=seed,
                                engine_factory=engine_factory,
                                invariants=invariants).run()
    return ScenarioRunner(scenario, seed=seed, engine_factory=engine_factory,
                          invariants=invariants).run()
