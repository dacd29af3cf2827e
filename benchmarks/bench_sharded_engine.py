"""Segmented-run benchmark: scale past the single-engine ceiling.

Measures the three quantities the per-segment event-loop work targets:

* **flat vs segmented** — the same node population as one flat membership
  group on one engine versus disjoint segments with per-segment engines.
  Group traffic is quadratic in group size, so segmenting a segmentable
  world is a near-linear algorithmic win at equal population — the case
  segmented runs exist for.
* **worker scaling** — a >=1,000-node segmented churn sweep run through
  ``run_segments_parallel`` at 1/2/4 worker processes.  Results are
  byte-identical at every worker count (the determinism gate); only the
  wall-clock changes, proportionally to the physical cores available —
  ``cpu_count`` is recorded next to the measured speedup, because on a
  single-core host the speedup is necessarily ~1x while the aggregate
  simulation throughput is unchanged.
* **parity** — the composition on one sequential engine and the
  per-segment worker processes must agree on the composition projection
  (every node-scoped observable).  Asserted, not sampled.

Usage::

    python benchmarks/bench_sharded_engine.py            # full (minutes)
    python benchmarks/bench_sharded_engine.py --smoke    # CI smoke
    python benchmarks/bench_sharded_engine.py --out results.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.experiments.scenario_suite import build_churn_segments
from repro.scenarios.library import canned
from repro.scenarios.runner import run_scenario
from repro.scenarios.sharded import (ShardedScenarioRunner,
                                     merge_solo_results, projection,
                                     run_segments_parallel)

SEED = 0


def _wall(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


# -- flat vs segmented: the algorithmic win -----------------------------------

def bench_flat_vs_segmented(total: int, group_size: int) -> dict:
    """Equal population: one flat group vs disjoint segments."""
    flat = canned("churn_storm", members=total, duration_s=55.0,
                  messages=40)
    flat_result, flat_wall = _wall(lambda: run_scenario(flat, seed=SEED))
    segments = build_churn_segments(total, group_size=group_size)
    seg_results, seg_wall = _wall(
        lambda: run_segments_parallel(segments, seed=SEED, workers=1))
    return {
        "nodes": total,
        "group_size": group_size,
        "flat_wall_s": round(flat_wall, 3),
        "flat_engine_events": flat_result.engine_events,
        "flat_delivered": flat_result.delivered_packets,
        "segmented_wall_s": round(seg_wall, 3),
        "segmented_engine_events": sum(r.engine_events
                                       for r in seg_results),
        "segmented_delivered": sum(r.delivered_packets
                                   for r in seg_results),
        "speedup": round(flat_wall / seg_wall, 2),
    }


# -- worker scaling: the parallel win -----------------------------------------

def bench_worker_scaling(total: int, group_size: int,
                         worker_counts) -> list[dict]:
    segments = build_churn_segments(total, group_size=group_size)
    rows = []
    baseline_wall = None
    for workers in worker_counts:
        results, wall = _wall(
            lambda w=workers: run_segments_parallel(segments, seed=SEED,
                                                    workers=w))
        if baseline_wall is None:
            baseline_wall = wall
        events = sum(result.engine_events for result in results)
        rows.append({
            "workers": workers,
            "nodes": len(segments) * group_size,
            "segments": len(segments),
            "wall_s": round(wall, 3),
            "engine_events": events,
            "events_per_sec": round(events / wall, 1),
            "speedup_vs_1_worker": round(baseline_wall / wall, 2),
            "delivered": sum(r.delivered_packets for r in results),
        })
    return rows


# -- parity gate --------------------------------------------------------------

def check_parity(segment_count: int, group_size: int) -> dict:
    segments = build_churn_segments(segment_count * group_size,
                                    group_size=group_size)
    sequential = ShardedScenarioRunner(segments, seed=SEED).run()
    expected = projection(sequential)
    solo = run_segments_parallel(segments, seed=SEED, workers=2)
    assert merge_solo_results(solo) == expected, \
        "worker processes diverged from sequential"
    return {
        "nodes": segment_count * group_size,
        "modes": ["sequential", "workers-2"],
        "identical": True,
        "delivered": sequential.delivered_packets,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (seconds, small populations)")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    if args.smoke:
        flat_total, flat_group = 40, 10
        scale_total, scale_group = 200, 10
        worker_counts = (1, 2)
        parity_segments, parity_group = 3, 10
    else:
        flat_total, flat_group = 100, 50
        scale_total, scale_group = 1000, 50
        worker_counts = (1, 2, 4)
        parity_segments, parity_group = 3, 20

    mode = "smoke" if args.smoke else "full"
    report = {
        "benchmark": f"benchmarks/bench_sharded_engine.py ({mode} mode, "
                     f"seed {SEED})",
        "cpu_count": os.cpu_count(),
        "notes": (
            "worker speedup is bounded by physical cores: on a "
            "single-core host it stays ~1x while per-worker results stay "
            "byte-identical; flat_vs_segmented is the core-independent "
            "algorithmic win (group traffic is quadratic in group size)."),
    }

    print(f"[1/3] parity gate ({parity_segments}x{parity_group} nodes)...",
          flush=True)
    report["parity"] = check_parity(parity_segments, parity_group)

    print(f"[2/3] flat vs segmented ({flat_total} nodes)...", flush=True)
    report["flat_vs_segmented"] = bench_flat_vs_segmented(flat_total,
                                                          flat_group)

    print(f"[3/3] worker scaling ({scale_total} nodes, "
          f"workers {worker_counts})...", flush=True)
    report["worker_scaling"] = bench_worker_scaling(scale_total,
                                                    scale_group,
                                                    worker_counts)

    text = json.dumps(report, indent=1, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
