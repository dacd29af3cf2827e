"""Ablation A6 — where the adaptive version's extra traffic goes.

The paper's footnote 1: *"even in the adaptive version there is a small
increase in the traffic due to the need of exchanging more control
information."*  This harness breaks the measured mobile node's transmission
count down by the event type that generated each packet — heartbeats,
context snapshots, Core coordination, membership flushes, NACKs, stability
reports and the chat data itself — for both the adaptive and the
non-adaptive configuration of a Figure 3 scenario.

Run with: ``python -m repro.experiments.control_overhead``
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.experiments.figure3 import (Figure3Config, ScenarioResult,
                                       run_scenario)
from repro.experiments.report import format_table

EVENT_ROWS = ("ApplicationMessage", "HeartbeatMessage", "ContextMessage",
              "CoreMessage", "MembershipMessage", "NackMessage",
              "RetransmissionMessage", "StabilityMessage")


def run_breakdown(
        num_nodes: int = 6,
        messages: int = 2000) -> tuple[ScenarioResult, ScenarioResult]:
    """The Figure 3 cell at ``num_nodes``, both configurations."""
    config = Figure3Config(messages=messages)
    adaptive = run_scenario(num_nodes, optimized=True, config=config)
    baseline = run_scenario(num_nodes, optimized=False, config=config)
    return adaptive, baseline


def format_breakdown(adaptive: ScenarioResult,
                     baseline: ScenarioResult) -> str:
    rows = []
    for event in EVENT_ROWS:
        rows.append([event,
                     adaptive.sent_by_event.get(event, 0),
                     baseline.sent_by_event.get(event, 0)])
    rows.append(["TOTAL", adaptive.sent_total, baseline.sent_total])
    header = (f"A6 — mobile node transmission breakdown "
              f"(n={adaptive.nodes}; footnote 1 of the paper)\n")
    return header + format_table(
        ["event type", "adaptive", "non-adaptive"], rows)


def control_fraction(result: ScenarioResult) -> float:
    """Share of the mobile node's transmissions that is control traffic."""
    return result.sent_control / result.sent_total if result.sent_total \
        else 0.0


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=6)
    parser.add_argument("--messages", type=int, default=2000)
    args = parser.parse_args(argv)
    adaptive, baseline = run_breakdown(args.nodes, args.messages)
    print(format_breakdown(adaptive, baseline))
    print(f"\nadaptive control fraction:     "
          f"{control_fraction(adaptive):.3%}")
    print(f"non-adaptive control fraction: "
          f"{control_fraction(baseline):.3%}")


if __name__ == "__main__":
    main()
