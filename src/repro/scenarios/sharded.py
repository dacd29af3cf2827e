"""Multi-segment scenario composition: one engine, or worker processes.

A *segment* is an ordinary :class:`~repro.scenarios.scenario.Scenario`
whose node population is disjoint from every other segment's — its own
membership group, its own workload, its own churn schedule.  This module
composes N segments into one simulated world two interchangeable ways:

* **sequential** — every segment on one engine
  (:class:`ShardedScenarioRunner`);
* **worker processes** — :func:`run_segments_parallel` runs each segment
  solo in a forked worker (disjoint segments never exchange packets, so
  they need no synchronization at all) and merges the picklable results.

The determinism contract across both is *per-segment projection
equality* (:func:`projection` / :func:`merge_solo_results`): every
node-scoped field — delivered texts, NIC counters, control views,
deployed configs, stack history — plus the order-independent global
counters must be identical.  Full ``ScenarioResult`` equality is not the
contract here because same-instant callbacks of *different* segments
have no defined mutual order (they share no state).

What makes segment runs composition-invariant (same behavior solo or
combined on one engine):

* per-sender loss streams (:mod:`repro.simnet.loss`), seeded by
  ``seed:segment-kind:sender`` — never by scenario name or draw
  interleaving;
* per-node protocol RNGs (gossip) seeded by node id;
* one shared engine sequence stream per run, so a segment's entries keep
  their relative ``(when, seq)`` order however the other segments'
  allocations interleave.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from typing import Callable, Optional, Sequence

from repro.scenarios.runner import (InvariantCheck, ScenarioResult,
                                    ScenarioRunner, run_scenario)
from repro.scenarios.scenario import (Crash, Handoff, Leave, LinkSpec,
                                      Recover, Scenario)
from repro.simnet.engine import SimEngine

#: Event types a segment may carry.  Network-global events (loss swaps,
#: partitions, heals, cell reshapes) act on shared state and would couple
#: segments; composing them is a modelling error, rejected loudly.
_SEGMENT_EVENTS = (Handoff, Crash, Recover, Leave)


def relabel_scenario(scenario: Scenario, prefix: str,
                     name: Optional[str] = None) -> Scenario:
    """Clone ``scenario`` with every node id prefixed by ``prefix``.

    Used to stamp copies of one template scenario into id-disjoint
    segments.  Rejects network-global events (see ``_SEGMENT_EVENTS``).
    """
    nodes = tuple(dataclasses.replace(spec, node_id=f"{prefix}{spec.node_id}")
                  for spec in scenario.nodes)
    events = []
    for event in scenario.events:
        if not isinstance(event, _SEGMENT_EVENTS):
            raise ValueError(
                f"{type(event).__name__} is network-global and cannot be "
                "scoped to a segment")
        events.append(dataclasses.replace(
            event, node=f"{prefix}{event.node}"))
    workload = tuple(dataclasses.replace(
        burst, sender=f"{prefix}{burst.sender}")
        for burst in scenario.workload)
    return dataclasses.replace(
        scenario, name=name if name is not None else scenario.name,
        nodes=nodes, events=tuple(events), workload=workload)


def _check_segments(segments: Sequence[Scenario]) -> None:
    if not segments:
        raise ValueError("at least one segment is required")
    seen: set[str] = set()
    for segment in segments:
        segment.validate()
        if segment.cells > 0:
            raise ValueError(
                f"segment {segment.name!r} is federated; run federation "
                "inside one segment is not supported yet")
        if segment.wired != LinkSpec() or segment.wireless != LinkSpec():
            # Link models belong to the one network a composed world
            # shares; a segment's own would be silently ignored there.
            raise ValueError(
                f"segment {segment.name!r} declares its own link models, "
                "which are network-global")
        ids = {spec.node_id for spec in segment.nodes}
        overlap = seen & ids
        if overlap:
            raise ValueError(
                f"segments share node ids: {sorted(overlap)}")
        seen |= ids
        for event in segment.events:
            if not isinstance(event, _SEGMENT_EVENTS):
                raise ValueError(
                    f"segment {segment.name!r} carries network-global "
                    f"event {type(event).__name__}")


class ShardedScenarioRunner(ScenarioRunner):
    """Run N disjoint segments as one composed simulation.

    Each segment boots its own membership group; the network is
    partitioned along segment lines (defense in depth — a stray
    cross-segment packet becomes a loud loss instead of silent
    coupling).  The composed world runs on the one engine
    ``engine_factory`` builds — the differential baseline the worker
    processes of :func:`run_segments_parallel` are compared against.
    """

    def __init__(self, segments: Sequence[Scenario], seed: int = 0,
                 engine_factory: Callable[[], SimEngine] = SimEngine,
                 invariants: Sequence[InvariantCheck] = (),
                 name: str = "sharded") -> None:
        _check_segments(segments)
        self.segments = tuple(segments)
        self._segment_nodes: tuple[frozenset[str], ...] = tuple(
            frozenset(spec.node_id for spec in segment.nodes)
            for segment in self.segments)
        combined = Scenario(
            name=name,
            duration_s=max(segment.duration_s for segment in self.segments),
            nodes=tuple(spec for segment in self.segments
                        for spec in segment.nodes))
        super().__init__(combined, seed=seed, engine_factory=engine_factory,
                         invariants=invariants)

    # -- segment scoping ----------------------------------------------------

    def segment_of(self, node_id: str) -> int:
        for index, nodes in enumerate(self._segment_nodes):
            if node_id in nodes:
                return index
        raise KeyError(node_id)

    def _populate(self) -> None:
        combined = self.scenario
        for segment in self.segments:
            for spec in segment.nodes:
                if spec.join_at is None:
                    self._add_node(spec)
        # Segment isolation as *network topology*: packets cannot cross
        # segment lines even if a protocol bug ever addressed one.
        # Installed before any Morpheus stack boots (and so subscribes to
        # topology news) — it is setup, not an observable event.
        self.network.partition(*self._segment_nodes)
        for segment in self.segments:
            self.scenario = segment
            try:
                initial = segment.initial_members()
                for node_id in initial:
                    self._boot_morpheus(node_id, initial, joining=False)
            finally:
                self.scenario = combined
        self.network.subscribe_topology(self._on_topology)

    def _schedule(self) -> None:
        for index, segment in enumerate(self.segments):
            for spec in segment.joiners():
                self.engine.call_at(
                    spec.join_at,
                    lambda s=spec, i=index: self._join_segment(i, s))
            for event_index, event in enumerate(segment.events):
                self.engine.call_at(
                    event.at,
                    lambda e=event, j=event_index: self._apply(e, j))
            combined = self.scenario
            self.scenario = segment
            try:
                for burst in segment.workload:
                    self._schedule_burst(burst)
            finally:
                self.scenario = combined

    def _join_segment(self, index: int, spec) -> None:
        """A joiner boots against its *segment's* live members and knobs."""
        combined = self.scenario
        self.scenario = self.segments[index]
        try:
            self._add_node(spec)
            live = (set(self.morpheus) & set(self.network.nodes)
                    & self._segment_nodes[index])
            members = sorted(live | {spec.node_id})
            self._boot_morpheus(spec.node_id, members, joining=True)
        finally:
            self.scenario = combined

    def _on_reconfigured(self, coordinator: str, name: str) -> None:
        """Segment-scoped stack snapshots.

        The flat runner snapshots every node on any reconfiguration; in a
        composed run a reconfiguration is segment-local news, and
        snapshotting other segments' nodes would make their histories
        depend on cross-segment timing coincidences — exactly what the
        composition contract forbids.
        """
        now = self.engine.now()
        self._reconfigs.append((now, coordinator, name))
        self._trace.append(f"{now:9.3f}s reconfigured to {name} "
                           f"(coordinator {coordinator})")
        segment = self.segment_of(coordinator)
        for node_id in sorted(self._segment_nodes[segment]):
            node = self.morpheus.get(node_id)
            if node is not None:
                self._stack_history[node_id].append(
                    (now, tuple(node.current_stack())))


def check_segment_isolation(runner: ShardedScenarioRunner,
                            result: ScenarioResult) -> list:
    """Invariant: no node's control view leaks across its segment line."""
    violations = []
    for node_id, view in result.control_views.items():
        segment = runner.segment_of(node_id)
        allowed = runner._segment_nodes[segment]
        strays = [member for member in view if member not in allowed]
        if strays:
            violations.append(
                f"{node_id} (segment {segment}) sees foreign members "
                f"{strays}")
    return violations


# ---------------------------------------------------------------------------
# Worker-process execution (the actual parallelism)
# ---------------------------------------------------------------------------

def _run_segment(args: tuple[Scenario, int]) -> ScenarioResult:
    scenario, seed = args
    return run_scenario(scenario, seed=seed)


def run_segments_parallel(segments: Sequence[Scenario], seed: int = 0,
                          workers: int = 1) -> list[ScenarioResult]:
    """Run each segment solo, fanned out over ``workers`` processes.

    Disjoint segments never exchange packets, so they need no
    synchronization at all: each worker runs a plain
    :class:`ScenarioRunner` at full speed and ships
    back its :class:`ScenarioResult` (plain tuples and dicts — nothing
    live crosses the process boundary).  Results come back in segment
    order regardless of completion order.
    """
    _check_segments(segments)
    jobs = [(segment, seed) for segment in segments]
    if workers <= 1:
        return [_run_segment(job) for job in jobs]
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()
    with context.Pool(processes=min(workers, len(jobs))) as pool:
        return pool.map(_run_segment, jobs)


# ---------------------------------------------------------------------------
# The cross-mode determinism contract
# ---------------------------------------------------------------------------

def projection(result: ScenarioResult) -> dict:
    """Canonical composition-invariant view of a composed run's result.

    Node-scoped fields verbatim; order-sensitive global logs as sorted
    multisets (same-instant callbacks of different segments have no
    defined mutual order); engine bookkeeping (``engine_events``,
    ``topology_epoch``) excluded — batching flush counts and the
    isolation partition differ by composition mode by construction.
    """
    return {
        "texts": dict(result.texts),
        "stats": dict(result.stats),
        "control_views": dict(result.control_views),
        "deployed": dict(result.deployed),
        "stack_history": dict(result.stack_history),
        "reconfigurations": tuple(sorted(result.reconfigurations)),
        "delivered_packets": result.delivered_packets,
        "lost_packets": result.lost_packets,
        "timer_events": result.timer_events,
    }


def merge_solo_results(results: Sequence[ScenarioResult]) -> dict:
    """Merge solo per-segment results into the same projection shape."""
    merged: dict = {
        "texts": {}, "stats": {}, "control_views": {}, "deployed": {},
        "stack_history": {}, "reconfigurations": [],
        "delivered_packets": 0, "lost_packets": 0, "timer_events": 0,
    }
    for result in results:
        merged["texts"].update(result.texts)
        merged["stats"].update(result.stats)
        merged["control_views"].update(result.control_views)
        merged["deployed"].update(result.deployed)
        merged["stack_history"].update(result.stack_history)
        merged["reconfigurations"].extend(result.reconfigurations)
        merged["delivered_packets"] += result.delivered_packets
        merged["lost_packets"] += result.lost_packets
        merged["timer_events"] += result.timer_events
    merged["reconfigurations"] = tuple(sorted(merged["reconfigurations"]))
    return merged
