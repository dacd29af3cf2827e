"""Ablation A3 — dissemination at scale: flooding vs epidemic gossip.

The paper's introduction motivates epidemic protocols for large,
geographically distributed groups (citing NEEM): a flooding sender pays
``n−1`` transmissions per multicast, while gossip spreads a bounded
``fanout × rounds`` load over every member.

Reported per group size: the origin's transmissions per multicast, the
maximum per-node transmissions (the hotspot), and the delivery ratio
(gossip is probabilistic).  Expected shape: flooding's origin load grows
linearly with ``n``; gossip's per-node load stays roughly flat while
delivery stays near 1.0 for ``rounds ≈ log₂ n + 2``.

Run with: ``python -m repro.experiments.gossip_scale``
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from typing import Optional

from repro.apps.workload import PacedSender
from repro.experiments.ministacks import (build_ministack, flood_stack,
                                          gossip_stack)
from repro.experiments.report import format_table
from repro.simnet.engine import SimEngine
from repro.simnet.network import Network

PAPER_GROUP_SIZES = (8, 16, 32, 64)


@dataclass
class ScaleResult:
    """Counters for one (n, strategy) run."""

    nodes: int
    strategy: str
    origin_sent_per_multicast: float
    max_node_sent_per_multicast: float
    delivery_ratio: float


def default_rounds(num_nodes: int) -> int:
    """``⌈log₂ n⌉ + 2`` rounds: delivery near 1.0 at every group size."""
    return int(math.ceil(math.log2(max(num_nodes, 2)))) + 2


def run_scale(num_nodes: int, strategy: str, *, messages: int = 30,
              rate: float = 10.0, fanout: int = 3,
              rounds: Optional[int] = None, seed: int = 13) -> ScaleResult:
    """One cell: a fixed-host group of ``num_nodes``, one origin sender."""
    engine = SimEngine()
    network = Network(engine)
    member_ids = [f"n{index:03d}" for index in range(num_nodes)]
    for node_id in member_ids:
        network.add_fixed_node(node_id)
    members_csv = ",".join(member_ids)

    probes = {}
    for node_id in member_ids:
        middle = flood_stack(members_csv) if strategy == "flood" \
            else gossip_stack(members_csv, fanout=fanout, seed=seed,
                              rounds=default_rounds(num_nodes)
                              if rounds is None else rounds)
        probes[node_id] = build_ministack(network, node_id, member_ids,
                                          middle)

    origin = probes[member_ids[0]]
    pacer = PacedSender(engine, origin.send, messages, rate, start=0.1,
                        make_payload=lambda i: ("g", i))
    last = pacer.schedule_all()
    engine.run_until(last + 10.0)

    receivers = member_ids[1:]
    delivered = sum(len(probes[node_id].deliveries)
                    for node_id in receivers)
    expected = messages * len(receivers)
    per_node_sent = [network.stats_of(node_id).sent_total
                     for node_id in member_ids]
    return ScaleResult(
        nodes=num_nodes, strategy=strategy,
        origin_sent_per_multicast=per_node_sent[0] / messages,
        max_node_sent_per_multicast=max(per_node_sent) / messages,
        delivery_ratio=delivered / expected if expected else 1.0)


def run_sweep(sizes=PAPER_GROUP_SIZES, **kwargs):
    """Flooding and gossip at every group size."""
    return [(run_scale(size, "flood", **kwargs),
             run_scale(size, "gossip", **kwargs)) for size in sizes]


def format_sweep(pairs) -> str:
    rows = []
    for flood, gossip in pairs:
        rows.append([
            flood.nodes,
            f"{flood.origin_sent_per_multicast:.1f}",
            f"{gossip.max_node_sent_per_multicast:.1f}",
            f"{flood.delivery_ratio:.3f}",
            f"{gossip.delivery_ratio:.3f}",
        ])
    return ("A3 — dissemination at scale: flooding vs gossip\n" +
            format_table(
                ["nodes", "flood origin msg/mcast", "gossip max msg/mcast",
                 "flood delivery", "gossip delivery"], rows))


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--messages", type=int, default=30)
    parser.add_argument("--sizes", type=int, nargs="*",
                        default=list(PAPER_GROUP_SIZES))
    parser.add_argument("--fanout", type=int, default=3)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)
    pairs = run_sweep(tuple(args.sizes), messages=args.messages,
                      fanout=args.fanout, seed=args.seed)
    print(format_sweep(pairs))


if __name__ == "__main__":
    main()
