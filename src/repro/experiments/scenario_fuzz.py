"""Scenario fuzzing harness — seeded search over the event grammar.

Generates random (but valid and fully seed-determined) dynamic-topology
scenarios, runs each under the always-on invariant set (view agreement,
delivery safety, counter consistency, sampled wheel/heap engine parity)
and — with ``--shrink`` — minimizes any failure to a locally-minimal,
replayable corpus file.

Run with::

    python -m repro.experiments.scenario_fuzz --seed 7 --runs 50
    python -m repro.experiments.scenario_fuzz --seed 7 --runs 50 --shrink \
        --corpus-dir tests/scenarios/corpus

Exit status is non-zero when any run violated an invariant — CI runs a
bounded smoke of this harness and uploads the shrunk reproducer as an
artifact when it trips.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Optional

from repro.scenarios.fuzz import MIXES, run_fuzz


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (fully determines every run)")
    parser.add_argument("--runs", type=int, default=25,
                        help="number of scenarios to generate and run")
    parser.add_argument("--mix", choices=sorted(MIXES), default="uniform",
                        help="event-kind weight profile")
    parser.add_argument("--policy-fuzz", action="store_true",
                        help="every scenario draws a random declarative "
                             "rule set (and often a governor) instead of "
                             "the fixed hybrid policy")
    parser.add_argument("--shrink", action="store_true",
                        help="minimize failures to a reproducer")
    parser.add_argument("--corpus-dir", type=str, default=None,
                        help="write shrunk reproducers here (implies "
                             "--shrink)")
    parser.add_argument("--parity-every", type=int, default=5,
                        help="replay every N-th run on the heap engine "
                             "(0 disables)")
    parser.add_argument("--max-shrink-tests", type=int, default=200,
                        help="candidate-run budget per shrink")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the summary")
    args = parser.parse_args(argv)

    log = (lambda line: None) if args.quiet else \
        (lambda line: print(line, file=sys.stderr))
    config = None
    if args.policy_fuzz:
        config = dataclasses.replace(MIXES[args.mix], rules_p=1.0)
    start = time.perf_counter()
    outcomes = run_fuzz(
        seed=args.seed, runs=args.runs, mix=args.mix, config=config,
        parity_every=args.parity_every,
        shrink_failures=args.shrink or args.corpus_dir is not None,
        corpus_dir=args.corpus_dir,
        max_shrink_tests=args.max_shrink_tests, log=log)
    wall = time.perf_counter() - start

    failures = [outcome for outcome in outcomes if outcome.failed]
    parity_checked = sum(1 for outcome in outcomes if outcome.parity_checked)
    print(f"scenario_fuzz: seed={args.seed} mix={args.mix}"
          f"{' policy-fuzz' if args.policy_fuzz else ''} "
          f"runs={len(outcomes)} failures={len(failures)} "
          f"parity_checked={parity_checked} wall={wall:.1f}s")
    for outcome in failures:
        print(f"  FAIL run {outcome.index} ({outcome.scenario.name}, "
              f"run_seed={outcome.run_seed}):")
        for violation in outcome.violations:
            print(f"    {violation}")
        if outcome.shrunk is not None:
            print(f"    shrunk: {len(outcome.shrunk.events)} events, "
                  f"{len(outcome.shrunk.nodes)} nodes, "
                  f"{len(outcome.shrunk.workload)} bursts")
        if outcome.corpus_path:
            print(f"    corpus: {outcome.corpus_path}")
    if not failures:
        print("  all invariants green")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
