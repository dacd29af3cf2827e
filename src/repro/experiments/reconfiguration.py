"""Ablation A1 — the cost of adaptation (paper §3.3's procedure).

Measures, for growing group sizes, what one Core-driven reconfiguration
costs while the chat workload is running:

* **latency** — from the coordinator's decision to group-wide completion
  (every member deployed the new stack and acked);
* **control messages** — network-wide transmissions attributable to the
  switch (measured against a no-reconfiguration baseline window);
* **service interruption** — the longest gap between consecutive
  deliveries observed at a receiver across the switch window.

Expected shape: latency grows mildly with ``n`` (two multicast rounds plus
per-member flush acks), the message cost grows linearly, and the
application observes a bounded pause, not message loss.

Run with: ``python -m repro.experiments.reconfiguration``
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional

from repro.core.morpheus import build_morpheus_group
from repro.experiments.report import format_table
from repro.simnet.engine import SimEngine
from repro.simnet.network import Network

PAPER_GROUP_SIZES = (2, 3, 6, 9)


@dataclass
class ReconfigResult:
    """Measurements for one group size."""

    nodes: int
    latency_s: float
    switch_messages: int
    longest_gap_s: float
    messages_lost: int


def run_reconfiguration(num_nodes: int, *,
                        rate: float = 10.0) -> ReconfigResult:
    """Run the paper's hybrid scenario and measure its one adaptation.

    The group starts on the plain stack with a paced chat stream running;
    Core's detection of the hybrid context triggers the plain → Mecho
    switch, whose cost we isolate.
    """
    engine = SimEngine()
    network = Network(engine)
    network.add_fixed_node("fixed-0")
    for index in range(num_nodes - 1):
        network.add_mobile_node(f"mobile-{index}")
    nodes = build_morpheus_group(network, publish_interval=2.0,
                                 evaluate_interval=2.0,
                                 heartbeat_interval=5.0)
    sender = nodes["mobile-0"] if num_nodes > 1 else nodes["fixed-0"]
    observer = nodes["fixed-0"]

    deliveries: list[tuple[float, str]] = []
    observer.chat.on_message = lambda delivery: deliveries.append(
        (engine.now(), delivery.text))

    # Continuous workload across the whole window.
    interval = 1.0 / rate
    total_messages = 600
    for index in range(total_messages):
        engine.call_at(0.5 + index * interval,
                       lambda i=index: sender.send(f"m-{i}"))
    engine.run_until(0.5 + total_messages * interval + 20.0)

    core = nodes["fixed-0"].core
    started = core.last_reconfig_started_at
    completed = core.last_reconfig_completed_at
    assert started is not None and completed is not None, \
        "reconfiguration did not run"

    # Message cost of the switch: membership (flush) plus Core coordination
    # traffic — neither flows in steady state, so the per-event counters
    # attribute them cleanly.
    switch_events = ("MembershipMessage", "CoreMessage")
    switch_messages = sum(
        network.stats_of(node_id).sent_by_event[event]
        for node_id in network.node_ids() for event in switch_events)

    gaps = [b[0] - a[0] for a, b in zip(deliveries, deliveries[1:])]
    longest_gap = max(gaps) if gaps else 0.0
    expected = {f"m-{i}" for i in range(total_messages)}
    received = {text for _, text in deliveries}
    return ReconfigResult(
        nodes=num_nodes,
        latency_s=completed - started,
        switch_messages=switch_messages,
        longest_gap_s=longest_gap,
        messages_lost=len(expected - received))


def run_sweep(sizes=PAPER_GROUP_SIZES, **kwargs) -> list[ReconfigResult]:
    return [run_reconfiguration(size, **kwargs) for size in sizes]


def format_sweep(results: list[ReconfigResult]) -> str:
    rows = [[result.nodes, f"{result.latency_s:.3f}",
             result.switch_messages, f"{result.longest_gap_s:.3f}",
             result.messages_lost]
            for result in results]
    return ("A1 — reconfiguration cost (plain → Mecho under live chat)\n" +
            format_table(
                ["nodes", "latency (s)", "membership+core msgs",
                 "longest delivery gap (s)", "messages lost"], rows))


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="*",
                        default=list(PAPER_GROUP_SIZES))
    args = parser.parse_args(argv)
    print(format_sweep(run_sweep(tuple(args.sizes))))


if __name__ == "__main__":
    main()
