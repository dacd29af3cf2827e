"""Scenario suite — dynamic-topology runs over the full Morpheus pipeline.

Executes every canned scenario (commuter handoff, flash-crowd join,
degrading-channel FEC crossover, churn storm, partition heal) and reports,
per scenario, the topology events applied, the live reconfigurations they
triggered, and the traffic outcome.  This is the dynamic counterpart of
the static figure harnesses: instead of adapting once to conditions fixed
before t=0, the stack re-adapts *while the context changes* — the class of
runs Rodriguez et al. treat as the primary adaptation trigger.

Run with: ``python -m repro.experiments.scenario_suite``
"""

from __future__ import annotations

import argparse
import inspect
import time
from typing import Iterable, Optional

from repro.experiments.report import format_table
from repro.scenarios.library import CANNED, canned
from repro.scenarios.runner import ScenarioResult, run_scenario

#: Group sizes of the churn scale sweep (ROADMAP: "scenario-driven
#: benchmarks at scale" — find the reconfiguration-throughput ceiling).
SWEEP_SIZES = (10, 30, 60, 100)


def run_suite(names: Optional[Iterable[str]] = None,
              seed: int = 0, **overrides) -> list[ScenarioResult]:
    """Run the selected canned scenarios (all of them by default).

    ``overrides`` reach each builder, filtered to the keywords it
    actually accepts (the builders differ: ``messages`` is universal,
    ``joiners`` is flash-crowd-only, …) — so a shared override scales
    every scenario without breaking the ones that don't know it.
    """
    selected = list(names) if names is not None else sorted(CANNED)
    results = []
    for name in selected:
        accepted = inspect.signature(CANNED[name]).parameters
        applicable = {key: value for key, value in overrides.items()
                      if key in accepted}
        results.append(run_scenario(canned(name, **applicable), seed=seed))
    return results


def format_suite(results: list[ScenarioResult]) -> str:
    rows = []
    for result in results:
        summary = result.summary()
        rows.append([
            summary["scenario"], summary["nodes"], summary["events"],
            summary["reconfigurations"], summary["sent"],
            summary["delivered"], summary["lost"],
        ])
    return ("Scenario suite — live adaptation under dynamic topology\n" +
            format_table(
                ["scenario", "nodes", "events", "reconfigs", "sent",
                 "delivered", "lost"], rows))


def format_trace(result: ScenarioResult) -> str:
    header = f"--- {result.name} (seed {result.seed}) ---"
    return "\n".join([header, *result.trace])


def run_churn_sweep(sizes: Iterable[int] = SWEEP_SIZES,
                    seed: int = 0, **overrides) -> list[dict]:
    """Sweep the churn storm over group sizes (10–100 nodes).

    The event schedule is identical at every size (see
    :func:`repro.scenarios.library.churn_storm`); only the group that has
    to live through the flushes grows.  Reports wall-clock and
    engine-events/second per size, the reconfiguration-throughput metric
    the copy-on-write message path is benchmarked on.
    """
    rows = []
    for members in sizes:
        scenario = canned("churn_storm", members=members, **overrides)
        start = time.perf_counter()
        result = run_scenario(scenario, seed=seed)
        wall = time.perf_counter() - start
        summary = result.summary()
        rows.append({
            "nodes": members,
            "wall_s": round(wall, 3),
            "engine_events": result.engine_events,
            "events_per_sec": round(result.engine_events / wall, 1),
            "reconfigurations": result.reconfiguration_count(),
            "sent": summary["sent"],
            "delivered": result.delivered_packets,
            "lost": result.lost_packets,
        })
    return rows


def format_churn_sweep(rows: list[dict]) -> str:
    table_rows = [[row["nodes"], f"{row['wall_s']:.2f}",
                   row["engine_events"], f"{row['events_per_sec']:,.0f}",
                   row["reconfigurations"], row["sent"], row["delivered"]]
                  for row in rows]
    return ("Churn-storm scale sweep — reconfiguration throughput\n" +
            format_table(["nodes", "wall s", "events", "events/s",
                          "reconfigs", "sent", "delivered"], table_rows))


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenarios", nargs="*", default=sorted(CANNED),
                        choices=sorted(CANNED))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true",
                        help="also print each run's event trace")
    parser.add_argument("--churn-sweep", type=int, nargs="*", default=None,
                        metavar="N",
                        help="also sweep churn_storm over these group "
                             f"sizes (no sizes = {SWEEP_SIZES})")
    args = parser.parse_args(argv)
    results = run_suite(args.scenarios, seed=args.seed)
    print(format_suite(results))
    if args.trace:
        for result in results:
            print()
            print(format_trace(result))
    if args.churn_sweep is not None:
        sizes = tuple(args.churn_sweep) or SWEEP_SIZES
        print()
        print(format_churn_sweep(run_churn_sweep(sizes, seed=args.seed)))


if __name__ == "__main__":
    main()
