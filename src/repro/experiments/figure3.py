"""Figure 3: messages sent by the mobile node, adaptive vs non-adaptive.

The paper's evaluation (§4): a chat application over the group suite,
scenarios with 2, 3, 6 and 9 devices (one fixed host plus mobile devices),
*"each run consisted of the exchange of 40.000 messages at the pace of
10 msg/s.  We have counted all the messages transmitted by the mobile
device, including data and control messages."*

Two configurations per scenario:

* **not optimized** — the plain stack (best-effort multicast as a sequence
  of point-to-point messages), no Morpheus;
* **optimized** — the full Morpheus architecture: the run starts on the
  plain stack, Cocaditem disseminates device types, Core reconfigures to
  Mecho, and the workload rides the adapted stack.

Expected shape (read off the paper's plot): the non-optimized line grows
linearly, reaching ≈ (n−1)·40,000 + control ≈ 320k–350k messages at n = 9;
the optimized line stays approximately flat at ≈ 40,000 + control; at n = 2
the two coincide.

Run the paper-scale experiment with::

    python -m repro.experiments.figure3

(takes a few minutes; ``--messages 4000`` for a quick pass).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Optional

from repro.core.morpheus import build_morpheus_group, build_plain_group
from repro.experiments.report import format_table
from repro.simnet.engine import SimEngine
from repro.simnet.network import Network

#: The scenario sizes of the paper's Figure 3.
PAPER_NODE_COUNTS = (2, 3, 6, 9)
PAPER_MESSAGES = 40_000
PAPER_RATE = 10.0

#: The mobile device whose transmissions are counted.
MEASURED_NODE = "mobile-0"


@dataclass
class Figure3Config:
    """Experiment parameters (defaults = the paper's)."""

    node_counts: tuple[int, ...] = PAPER_NODE_COUNTS
    messages: int = PAPER_MESSAGES
    rate: float = PAPER_RATE
    seed: int = 42
    #: Settling time before the workload starts (adaptation window).
    warmup: float = 30.0
    #: Drain time after the last send.
    drain: float = 20.0
    heartbeat_interval: float = 5.0
    publish_interval: float = 10.0
    evaluate_interval: float = 5.0


@dataclass
class ScenarioResult:
    """Counters for one (n, configuration) run."""

    nodes: int
    optimized: bool
    sent_total: int
    sent_data: int
    sent_control: int
    fixed_sent_total: int
    delivered_everywhere: bool
    sent_by_event: dict = field(default_factory=dict)


def _build_network(num_nodes: int) -> tuple[SimEngine, Network]:
    """1 fixed host + (n-1) mobile devices, as in the paper's hybrid runs."""
    engine = SimEngine()
    network = Network(engine)
    network.add_fixed_node("fixed-0")
    for index in range(num_nodes - 1):
        network.add_mobile_node(f"mobile-{index}")
    return engine, network


def run_scenario(num_nodes: int, optimized: bool,
                 config: Optional[Figure3Config] = None) -> ScenarioResult:
    """Run one Figure 3 cell and return the mobile node's counters."""
    config = config or Figure3Config()
    engine, network = _build_network(num_nodes)
    if optimized:
        nodes = build_morpheus_group(
            network,
            heartbeat_interval=config.heartbeat_interval,
            publish_interval=config.publish_interval,
            evaluate_interval=config.evaluate_interval)
    else:
        nodes = build_plain_group(
            network, heartbeat_interval=config.heartbeat_interval)
    sender = nodes[MEASURED_NODE]

    engine.run_until(config.warmup)

    interval = 1.0 / config.rate
    for index in range(config.messages):
        engine.call_at(config.warmup + index * interval,
                       lambda i=index: sender.send(f"chat-{i}"))
    end = config.warmup + config.messages * interval + config.drain
    engine.run_until(end)

    expected = [f"chat-{i}" for i in range(config.messages)]
    delivered_everywhere = all(
        node.chat.texts() == expected for node in nodes.values())
    stats = network.stats_of(MEASURED_NODE)
    return ScenarioResult(
        nodes=num_nodes, optimized=optimized,
        sent_total=stats.sent_total, sent_data=stats.sent_data,
        sent_control=stats.sent_control,
        fixed_sent_total=network.stats_of("fixed-0").sent_total,
        delivered_everywhere=delivered_everywhere,
        sent_by_event=dict(stats.sent_by_event))


@dataclass
class Figure3Point:
    """One x-axis position of the figure."""

    nodes: int
    optimized: ScenarioResult
    not_optimized: ScenarioResult


def run_figure3(config: Optional[Figure3Config] = None) -> list[Figure3Point]:
    """Regenerate the full figure: both series at every scenario size."""
    config = config or Figure3Config()
    points = []
    for num_nodes in config.node_counts:
        points.append(Figure3Point(
            nodes=num_nodes,
            optimized=run_scenario(num_nodes, optimized=True, config=config),
            not_optimized=run_scenario(num_nodes, optimized=False,
                                       config=config)))
    return points


def format_figure3(points: list[Figure3Point], messages: int) -> str:
    """Render the figure's series as the paper's rows."""
    rows = []
    for point in points:
        rows.append([
            point.nodes,
            point.optimized.sent_total,
            point.not_optimized.sent_total,
            f"{point.not_optimized.sent_total / max(point.optimized.sent_total, 1):.2f}x",
            point.optimized.sent_control,
            point.not_optimized.sent_control,
        ])
    table = format_table(
        ["devices", "optimized (sent)", "not optimized (sent)", "gain",
         "opt control", "non-opt control"], rows)
    header = (f"Figure 3 — messages sent by the mobile node "
              f"({messages:,} chat messages at 10 msg/s)\n")
    return header + table


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--messages", type=int, default=PAPER_MESSAGES,
                        help="chat messages per run (paper: 40000)")
    parser.add_argument("--nodes", type=int, nargs="*",
                        default=list(PAPER_NODE_COUNTS),
                        help="scenario sizes (paper: 2 3 6 9)")
    parser.add_argument("--rate", type=float, default=PAPER_RATE)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    config = Figure3Config(node_counts=tuple(args.nodes),
                           messages=args.messages, rate=args.rate,
                           seed=args.seed)
    points = run_figure3(config)
    print(format_figure3(points, config.messages))
    for point in points:
        for result in (point.optimized, point.not_optimized):
            if not result.delivered_everywhere:
                raise SystemExit(
                    f"delivery check FAILED for n={result.nodes} "
                    f"optimized={result.optimized}")
    print("\nAll runs delivered every chat message at every node.")


if __name__ == "__main__":
    main()
