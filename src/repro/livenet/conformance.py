"""Sim-vs-live conformance: the simulator is the oracle for the sockets.

A conformance case replays one canned scenario twice — once on the
deterministic simulator, once over real UDP loopback sockets with the
simulator's link model applied to every frame — and diffs the
protocol-level outcomes that must be timing-independent:

* **delivery histories** (chat texts, in delivery order) of *stable*
  nodes — members present from t=0 that never crash, leave, or sit on the
  far side of a partition from the sender.  Stability matters because the
  two known protocol gaps (no state transfer on join, no partition-merge
  reconciliation — both ROADMAP carried-over items) make joiners' and
  partitioned nodes' histories legitimately timing-dependent;
* **view-membership sequences**: the deduplicated succession of
  membership sets each stable node installed on the control channel;
* **final control views** and the **final deployed configuration**;
* **byte-counter sanity**: the live run must have moved real traffic
  (sent/delivered counters are reported in full for diagnosis, but not
  compared exactly — retransmission counts are timing-dependent).

On any mismatch the full sim/live payloads are written as a JSON
divergence trace (:func:`write_divergence_trace`) for the CI job to
upload as an artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.livenet.runner import (DEFAULT_TIME_SCALE, LiveScenarioRunner)
from repro.scenarios.library import canned
from repro.scenarios.runner import ScenarioRunner, ScenarioResult
from repro.scenarios.scenario import Crash, Leave, Scenario


@dataclass(frozen=True)
class ConformanceCase:
    """One canned scenario sized for conformance replay.

    ``overrides`` shrink the workload so every burst ends well before the
    horizon — the settle window is what lets NACK recovery finish on both
    backends, making exact delivery-history equality a fair assertion.
    ``stable`` names the nodes whose histories must match the oracle.
    """

    name: str
    stable: tuple[str, ...]
    overrides: dict = field(default_factory=dict)

    def build(self) -> Scenario:
        return canned(self.name, **self.overrides)


#: The conformance suite: every canned scenario, each with its stable set.
#: Partition/churn cases compare only the sender-side / continuously-live
#: members (see the module docstring for why).
CONFORMANCE_CASES: tuple[ConformanceCase, ...] = (
    ConformanceCase("commuter_handoff",
                    stable=("commuter", "fixed-0", "fixed-1"),
                    overrides={"messages": 40}),
    ConformanceCase("flash_crowd_join",
                    stable=("fixed-0", "fixed-1"),
                    overrides={"messages": 40}),
    ConformanceCase("degrading_channel_fec",
                    stable=("fixed-0", "fixed-1", "fixed-2", "mobile-0"),
                    overrides={"messages": 120}),
    ConformanceCase("churn_storm",
                    stable=("fixed-0", "mobile-0"),
                    overrides={"messages": 60}),
    ConformanceCase("partition_heal",
                    stable=("fixed-0", "fixed-1"),
                    overrides={"messages": 60}),
)


def stable_members(scenario: Scenario) -> tuple[str, ...]:
    """Default stable set: t=0 members that never crash or leave.

    Partition scenarios need an explicit set (which side of the cut is
    stable depends on where the workload's sender sits, which this
    inference cannot see).
    """
    t0 = {spec.node_id for spec in scenario.nodes if spec.join_at is None}
    for event in scenario.events:
        if isinstance(event, (Crash, Leave)):
            t0.discard(event.node)
    return tuple(sorted(t0))


def view_sequences(runner: ScenarioRunner,
                   node_ids: Sequence[str]) -> dict[str, list[list[str]]]:
    """Deduplicated control-channel membership-set sequence per node.

    Reads the membership layer's install log *after* the run (the runner
    object keeps its Morpheus nodes alive), deduplicating consecutive
    identical member sets: install *times* and view ids are
    timing-dependent, the succession of memberships is not.
    """
    sequences: dict[str, list[list[str]]] = {}
    for node_id in node_ids:
        morpheus = runner.morpheus[node_id]
        membership = morpheus.control_channel.session_named("membership")
        sequence: list[list[str]] = []
        for _when, _view_id, members, _departed in membership.install_log:
            entry = list(members)
            if not sequence or sequence[-1] != entry:
                sequence.append(entry)
        sequences[node_id] = sequence
    return sequences


def _payload(result: ScenarioResult,
             views: dict[str, list[list[str]]],
             stable: Sequence[str]) -> dict:
    return {
        "texts": {node: list(result.texts.get(node, ()))
                  for node in stable},
        "views": views,
        "control_views": {node: list(result.control_views.get(node, ()))
                          for node in stable},
        "deployed": {node: result.deployed.get(node)
                     for node in stable},
        "counters": {
            "delivered_packets": result.delivered_packets,
            "lost_packets": result.lost_packets,
            "per_node": {node: result.stats.get(node, {})
                         for node in stable},
        },
        "reconfigurations": len(result.reconfigurations),
        "trace": list(result.trace),
    }


@dataclass
class ConformanceReport:
    """The outcome of one sim-vs-live replay, with full diff payloads."""

    scenario: str
    seed: int
    time_scale: float
    stable: tuple[str, ...]
    mismatches: tuple[str, ...]
    sim: dict
    live: dict

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> str:
        return json.dumps({
            "scenario": self.scenario,
            "seed": self.seed,
            "time_scale": self.time_scale,
            "stable_nodes": list(self.stable),
            "mismatches": list(self.mismatches),
            "sim": self.sim,
            "live": self.live,
        }, indent=2, sort_keys=True, default=str)


def _first_divergence(a: list, b: list) -> str:
    for index, (left, right) in enumerate(zip(a, b)):
        if left != right:
            return f"first divergence at [{index}]: {left!r} != {right!r}"
    return f"lengths differ: {len(a)} vs {len(b)}"


def run_conformance(case: ConformanceCase, seed: int = 0,
                    time_scale: float = DEFAULT_TIME_SCALE
                    ) -> ConformanceReport:
    """Replay one case on both backends and diff the outcomes."""
    scenario = case.build()
    stable = case.stable or stable_members(scenario)

    sim_runner = ScenarioRunner(scenario, seed=seed)
    sim_result = sim_runner.run()
    sim_views = view_sequences(sim_runner, stable)

    live_runner = LiveScenarioRunner(case.build(), seed=seed,
                                     time_scale=time_scale)
    live_result = live_runner.run()
    live_views = view_sequences(live_runner, stable)

    mismatches: list[str] = []
    for node in stable:
        sim_texts = list(sim_result.texts.get(node, ()))
        live_texts = list(live_result.texts.get(node, ()))
        if sim_texts != live_texts:
            mismatches.append(
                f"{node}: delivery history diverges — "
                f"{_first_divergence(sim_texts, live_texts)}")
        if sim_views[node] != live_views[node]:
            mismatches.append(
                f"{node}: view sequence diverges — "
                f"{_first_divergence(sim_views[node], live_views[node])}")
        sim_final = list(sim_result.control_views.get(node, ()))
        live_final = list(live_result.control_views.get(node, ()))
        if sim_final != live_final:
            mismatches.append(f"{node}: final control view "
                              f"{live_final} != oracle {sim_final}")
        if sim_result.deployed.get(node) != live_result.deployed.get(node):
            mismatches.append(
                f"{node}: deployed config "
                f"{live_result.deployed.get(node)!r} != oracle "
                f"{sim_result.deployed.get(node)!r}")
    if live_result.delivered_packets <= 0:
        mismatches.append("live run delivered no packets at all")
    for node in stable:
        if live_result.stats.get(node, {}).get("sent_total", 0) <= 0:
            mismatches.append(f"{node}: live node sent no packets")

    return ConformanceReport(
        scenario=scenario.name, seed=seed, time_scale=time_scale,
        stable=tuple(stable), mismatches=tuple(mismatches),
        sim=_payload(sim_result, sim_views, stable),
        live=_payload(live_result, live_views, stable))


def write_divergence_trace(report: ConformanceReport,
                           directory: str) -> Optional[Path]:
    """Persist a failing report as a JSON artifact; returns its path."""
    if report.ok:
        return None
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{report.scenario}-seed{report.seed}.json"
    path.write_text(report.to_json())
    return path
