"""Is the benchmark steady?  Runs N seeds twice, as the driver will.

    python3 benchmarks/spine/steady.py --out benchmarks/spine/results

For every workload and end-to-end metric it prints both sets' medians and
spreads (the distance between the first and third quartile of the set's
values, ``statistics.quantiles(values, n=4)``, as a share of their
median), how much worse the second median is than the first, the bound
from ``BENCHMARK.json`` and a third of it, and flags

* ``WIDE``    a spread above a third of the bound,
* ``DRIFT``   a second median worse than the first by more than the bound,
* ``REPEATS`` fewer than ten distinct values over the two sets — the mark
  of a simulated statistic or a count, which may not be end to end.

``--out DIR`` also writes ``set1.json``, ``set2.json`` (every result line)
and ``steady.txt`` (the table).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def run_once(manifest: dict, workload: str, seed: int, seconds: int) -> dict:
    command = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def table(manifest: dict, sets: list[dict]) -> list[str]:
    lines = [f"{'workload':16s} {'metric':22s} {'median 1':>12s} "
             f"{'spread 1':>9s} {'median 2':>12s} {'spread 2':>9s} "
             f"{'worse by':>9s} {'bound':>6s} {'third':>6s}  flags"]
    for workload in sets[0]:
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[run["metrics"][name]["value"]
                       for run in results[workload]] for results in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            flags = []
            if name != "setup_s" and max(spreads) > bound / 3:
                flags.append("WIDE")
            if worse > bound:
                flags.append("DRIFT")
            if len(set(values[0] + values[1])) < min(
                    10, len(values[0] + values[1])):
                flags.append("REPEATS")
            lines.append(
                f"{workload:16s} {name:22s} {medians[0]:12.4f} "
                f"{spreads[0]:9.4f} {medians[1]:12.4f} {spreads[1]:9.4f} "
                f"{worse:+9.4f} {bound:6.2f} {bound / 3:6.3f}  "
                f"{' '.join(flags)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in manifest["workloads"]]
    sets = []
    for number in (1, 2):
        results: dict[str, list] = {workload: [] for workload in workloads}
        for seed in range(1, args.seeds + 1):
            for workload in workloads:
                results[workload].append(
                    run_once(manifest, workload, seed,
                             manifest["run_seconds"]))
                print(f"set {number} seed {seed} {workload}",
                      file=sys.stderr)
        sets.append(results)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"set{number}.json").write_text(
                json.dumps(results, indent=1) + "\n")
    lines = table(manifest, sets)
    print("\n".join(lines))
    if args.out:
        (args.out / "steady.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
