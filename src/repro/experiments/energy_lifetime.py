"""Ablation A4 — energy-aware adaptation and network lifetime (§1, [20]).

*"When all participants execute in mobile devices, one can use information
about the available battery at each device to increase the lifetime of the
network."*  This experiment realizes that claim with the Morpheus stack:

* **plain** — every node multicasts as ``n−1`` point-to-point sends;
* **static relay** — Mecho with a fixed relay (deterministic lowest id),
  concentrating the forwarding burden on one battery;
* **rotating relay** — the ``battery_rotation`` rule: Cocaditem
  disseminates battery levels and Core re-selects the relay as batteries
  drain.

Devices start with *heterogeneous* batteries (the lowest-id node weakest).
Metric: **network lifetime** — virtual time until the first battery dies —
plus messages delivered group-wide within the lifetime.  Expected shape:
rotating > plain > static-on-weak-node.

Run with: ``python -m repro.experiments.energy_lifetime``
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional

from repro.core.morpheus import build_morpheus_group
from repro.core.policy import ReconfigurationPlan, StaticPolicy
from repro.core.rules import engine_from_spec
from repro.core.templates import mecho_data_template
from repro.experiments.report import format_table
from repro.kernel.xml_config import PolicySpec, RuleSpec
from repro.simnet.energy import Battery
from repro.simnet.engine import SimEngine
from repro.simnet.network import Network

STRATEGIES = ("plain", "static", "rotating")


@dataclass
class LifetimeResult:
    """Outcome of one strategy run."""

    strategy: str
    lifetime_s: float
    first_casualty: str
    delivered_in_lifetime: int
    relay_switches: int


def _build(strategy: str, num_nodes: int, capacity_mj: float):
    engine = SimEngine()
    network = Network(engine)
    member_ids = [f"m{index}" for index in range(num_nodes)]
    for index, node_id in enumerate(member_ids):
        # Heterogeneous reserves: the lowest-id device is the weakest.
        fraction = 0.4 if index == 0 else 1.0
        network.add_mobile_node(node_id, battery=Battery(
            capacity_mj=capacity_mj * fraction))
    stack_options = {"heartbeat_interval": 10.0}
    if strategy == "plain":
        policy = None  # hybrid_mecho sees a homogeneous group: plain
    elif strategy == "static":
        relay = member_ids[0]
        plan = ReconfigurationPlan(name=f"static:relay={relay}")
        for member in member_ids:
            mode = "wired" if member == relay else "wireless"
            plan.templates[member] = mecho_data_template(
                member_ids, mode=mode, relay=relay, **stack_options)
        policy = StaticPolicy(plan)
    else:
        policy = engine_from_spec(
            PolicySpec("rotating", (RuleSpec("battery_rotation",
                                             {"hysteresis": 0.05}),)),
            stack_options=stack_options)
    nodes = build_morpheus_group(
        network, policy=policy, publish_interval=5.0, evaluate_interval=5.0,
        heartbeat_interval=10.0)
    return engine, network, nodes


def run_lifetime(strategy: str, *, num_nodes: int = 4, rate: float = 4.0,
                 capacity_mj: float = 4000.0, horizon_s: float = 2000.0,
                 seed: int = 31) -> LifetimeResult:
    """Run one strategy until the first battery dies (or the horizon)."""
    engine, network, nodes = _build(strategy, num_nodes, capacity_mj)
    member_ids = network.node_ids()

    # Everyone chats, round-robin, at an aggregate ``rate`` msg/s.
    interval = 1.0 / rate
    sends = int(horizon_s / interval)
    for index in range(sends):
        sender = nodes[member_ids[index % len(member_ids)]]
        engine.call_at(10.0 + index * interval,
                       lambda s=sender, i=index: s.send(f"e-{i}"))

    lifetime = horizon_s
    casualty = "(none)"
    step = 5.0
    now = 0.0
    while now < horizon_s:
        now = min(now + step, horizon_s)
        engine.run_until(now)
        dead = [node_id for node_id in member_ids
                if not network.node(node_id).battery.alive]
        if dead:
            lifetime = now
            casualty = dead[0]
            break

    delivered = sum(len(node.chat.history) for node in nodes.values())
    switches = max(node.core.reconfigurations_completed
                   for node in nodes.values())
    return LifetimeResult(strategy=strategy, lifetime_s=lifetime,
                          first_casualty=casualty,
                          delivered_in_lifetime=delivered,
                          relay_switches=switches)


def run_all(**kwargs) -> list[LifetimeResult]:
    return [run_lifetime(strategy, **kwargs) for strategy in STRATEGIES]


def format_results(results: list[LifetimeResult]) -> str:
    rows = [[result.strategy, f"{result.lifetime_s:.0f}",
             result.first_casualty, result.delivered_in_lifetime,
             result.relay_switches]
            for result in results]
    return ("A4 — network lifetime under heterogeneous batteries\n" +
            format_table(
                ["strategy", "lifetime (s)", "first casualty",
                 "delivered msgs", "reconfigs"], rows))


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--capacity", type=float, default=4000.0)
    parser.add_argument("--horizon", type=float, default=2000.0)
    parser.add_argument("--seed", type=int, default=31)
    args = parser.parse_args(argv)
    results = run_all(num_nodes=args.nodes, capacity_mj=args.capacity,
                      horizon_s=args.horizon, seed=args.seed)
    print(format_results(results))


if __name__ == "__main__":
    main()
