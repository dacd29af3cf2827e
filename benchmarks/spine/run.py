"""The repo's benchmark command (see BENCHMARK.json and README.md here).

    python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1

The command itself only starts and reads child processes (``--child``),
one at a time, so that the workload runs alone in a fresh interpreter and
set-up time can be taken from process creation:

* ``--trace 0``: :data:`SETUPS` - 1 children that stop when the timed
  window would open, then the measured child.  ``setup_s`` is the median
  of all :data:`SETUPS` set-ups; the other end-to-end metrics come from
  the measured child, which runs untraced.
* ``--trace 1``: an untraced child and a traced child on the same inputs,
  sized :data:`TRACE_SHARE` of ``--seconds`` each.  Counts come from the
  untraced child and must equal the traced child's on the simulator.

The last line of standard output is the result object; an incorrect run
prints it with ``"correct": false``, the reasons on standard error, and
exits 1.  Without ``src/repro`` next to ``benchmarks/`` the command
prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import ROOTS

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Set-ups per ``--trace 0`` run (the measured child's included).
SETUPS = 3
#: Share of ``--seconds`` each of the two ``--trace 1`` children is sized
#: for: the traced one runs about twice as long as the untraced one.
TRACE_SHARE = 0.3
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170

PROTOCOLS = ("heartbeat", "membership", "viewsync", "reliable", "beb",
             "mecho", "fec")


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--child", choices=("setup", "run", "traced",
                                            "inputs"),
                        help="internal: run in this process")
    parser.add_argument("--t0", type=float,
                        help="internal: the parent's clock at process start")
    return parser.parse_args()


# -- the child: one workload process -------------------------------------------


def child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import measure
    import workloads

    cells = workloads.build(args.workload, args.seed, args.seconds)
    if args.child == "inputs":
        print(workloads.digest(cells))
        return 0
    tracer = None
    if args.child == "traced":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    try:
        record = measure.run_workload(cells, args.seed, args.t0, tracer,
                                      setup_only=args.child == "setup")
    except measure.WorkloadError as error:
        record = {"problems": [str(error)]}
    record["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


def _spawn(args: argparse.Namespace, mode: str, seconds: float) -> dict:
    """Run one child to its end and return the record it printed."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--child", mode, "--t0", repr(perf_counter())]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"{mode} child exceeded {CHILD_TIMEOUT_S}s"]}
    if done.returncode != 0 or not done.stdout.strip():
        return {"problems": [f"{mode} child exited {done.returncode}"]}
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- the parent: metrics ------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args: argparse.Namespace) -> tuple[dict, dict, list[str]]:
    records = [_spawn(args, "setup", args.seconds)
               for _ in range(SETUPS - 1)]
    run = _spawn(args, "run", args.seconds)
    records.append(run)
    problems = [p for record in records for p in record["problems"]]
    if problems:
        return run, {}, problems
    return run, {
        "setup_s": _metric(
            statistics.median(r["setup_s"] for r in records), "s"),
        "cpu_us_per_delivery": _metric(run["cpu_us_per_delivery"], "us"),
        "deliveries_per_wall_s": _metric(run["deliveries_per_wall_s"],
                                         "1/s"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
    }, problems


def per_layer(args: argparse.Namespace) -> tuple[dict, dict, list[str]]:
    seconds = args.seconds * TRACE_SHARE
    plain = _spawn(args, "run", seconds)
    traced = _spawn(args, "traced", seconds)
    problems = plain["problems"] + traced["problems"]
    if problems:
        return plain, {}, problems
    live = args.workload.startswith("live")
    if not live:
        for key in ("counters", "sends", "deliveries", "attempted",
                    "reconfigurations", "latency_p50_ms", "latency_p99_ms",
                    "reconfig_p50_s"):
            if plain[key] != traced[key]:
                problems.append(f"traced {key} {traced[key]} differ from "
                                f"untraced {plain[key]}")
    counts = plain["counters"]
    spans = traced["spans"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def sent(event: str) -> int:
        return counts.get(f"sent.{event}", 0)

    packets = counts["packets"]
    deliveries = plain["deliveries"]
    values: dict[str, tuple[float, str]] = {}
    for layer in PROTOCOLS:
        values[f"protocols.{layer}.handle_calls"] = (
            span(f"protocols.{layer}.handle", "calls"), "count")
        values[f"protocols.{layer}.self_ms"] = (
            span(f"protocols.{layer}.handle", "self_ms"), "ms")
    accounted = sum(entry["self_ms"] for name, entry in spans.items()
                    if name not in ROOTS)
    values.update({
        "protocols.heartbeat.packets_sent": (sent("HeartbeatMessage"),
                                             "count"),
        "protocols.membership.packets_sent": (sent("MembershipMessage"),
                                              "count"),
        "context.cocaditem.packets_sent": (sent("ContextMessage"), "count"),
        "core.packets_sent": (sent("CoreMessage"), "count"),
        "apps.chat.packets_sent": (sent("ApplicationMessage"), "count"),
        "protocols.reliable.retransmissions": (sent("RetransmissionMessage"),
                                               "count"),
        "protocols.reliable.nacks": (sent("NackMessage"), "count"),
        "wire.packets_per_delivery": (packets / deliveries, "count"),
        "wire.bytes_per_delivery": (counts["wire_bytes"] / deliveries, "B"),
        "wire.background_packet_share": (
            (packets - sent("ApplicationMessage")) / packets, "share"),
        "apps.chat.sends": (plain["sends"], "count"),
        "apps.chat.deliveries": (deliveries, "count"),
        "apps.chat.self_ms": (span("apps.chat.handle", "self_ms"), "ms"),
        "apps.chat.deliver_latency_p50_ms": (plain["latency_p50_ms"], "ms"),
        "apps.chat.deliver_latency_p99_ms": (plain["latency_p99_ms"], "ms"),
        "context.cocaditem.handle_calls": (
            span("context.cocaditem.handle", "calls"), "count"),
        "context.cocaditem.self_ms": (
            span("context.cocaditem.handle", "self_ms"), "ms"),
        "context.cocaditem.publishes": (
            span("context.cocaditem.publish", "calls"), "count"),
        "core.core_layer.handle_calls": (
            span("core.core_layer.handle", "calls"), "count"),
        "core.core_layer.self_ms": (
            span("core.core_layer.handle", "self_ms"), "ms"),
        "core.policy.decide_calls": (span("core.policy.decide", "calls"),
                                     "count"),
        "core.policy.decide_ms": (span("core.policy.decide", "total_ms"),
                                  "ms"),
        "core.local_module.apply_calls": (
            span("core.local_module.apply", "calls"), "count"),
        "core.local_module.apply_ms": (
            span("core.local_module.apply", "total_ms") +
            span("core.local_module.swap", "total_ms"), "ms"),
        "core.reconfigurations": (plain["reconfigurations"], "count"),
        "core.reconfig_latency_p50_s": (plain["reconfig_p50_s"], "s"),
        "kernel.scheduler.dispatched_events": (counts["dispatched"],
                                               "count"),
        "kernel.scheduler.timer_dispatches": (counts["timers"], "count"),
        "kernel.scheduler.self_ms": (span("kernel.scheduler.run", "self_ms"),
                                     "ms"),
        "kernel.transport.handle_calls": (
            span("kernel.transport.handle", "calls"), "count"),
        "kernel.transport.self_ms": (
            span("kernel.transport.handle", "self_ms"), "ms"),
        "kernel.codec.encode_calls": (span("kernel.codec.encode", "calls"),
                                      "count"),
        "kernel.codec.encode_ms": (span("kernel.codec.encode", "total_ms"),
                                   "ms"),
        "kernel.codec.decode_calls": (span("kernel.codec.decode", "calls"),
                                      "count"),
        "kernel.codec.decode_ms": (span("kernel.codec.decode", "total_ms"),
                                   "ms"),
        "kernel.message.wire_copy_calls": (
            span("kernel.message.wire_copy", "calls"), "count"),
        "kernel.message.wire_copy_ms": (
            span("kernel.message.wire_copy", "total_ms"), "ms"),
        "simnet.engine.events_fired": (
            0 if live else counts["engine_events"], "count"),
        "simnet.engine.self_ms": (
            span("simnet.engine.run_until", "self_ms"), "ms"),
        "simnet.network.transmit_calls": (
            span("simnet.network.transmit", "calls"), "count"),
        "simnet.network.transmit_self_ms": (
            span("simnet.network.transmit", "self_ms"), "ms"),
        "simnet.network.deliver_self_ms": (
            span("simnet.network.deliver", "self_ms"), "ms"),
        "simnet.network.delivered_packets": (
            0 if live else counts["delivered"], "count"),
        "simnet.network.lost_packets": (
            0 if live else counts["lost"], "count"),
        "livenet.clock.self_ms": (span("livenet.clock.poll", "self_ms"),
                                  "ms"),
        "livenet.frame.encode_ms": (span("livenet.frame.encode", "total_ms"),
                                    "ms"),
        "livenet.frame.decode_ms": (span("livenet.frame.decode", "total_ms"),
                                    "ms"),
        "livenet.network.transmit_self_ms": (
            span("livenet.network.transmit", "self_ms"), "ms"),
        "livenet.network.receive_self_ms": (
            span("livenet.network.receive", "self_ms"), "ms"),
        "livenet.network.datagrams_sent": (packets if live else 0, "count"),
        "livenet.network.decode_errors": (counts.get("decode_errors", 0),
                                          "count"),
        "scenarios.runner.build_ms": (plain["build_ms"], "ms"),
        "scenarios.runner.warmup_ms": (plain["warmup_ms"], "ms"),
        "process.window_cpu_us_per_delivery": (
            plain["window_cpu_s"] * 1e6 / deliveries, "us"),
        "process.cpu_busy_share": (
            plain["window_cpu_s"] / plain["window_wall_s"], "share"),
        "process.rss_growth_mb": (plain["rss_growth_mb"], "MB"),
        "trace.overhead_ratio": (
            traced["cpu_us_per_delivery"] / plain["cpu_us_per_delivery"],
            "ratio"),
        "trace.window_ms": (traced["window_wall_s"] * 1e3, "ms"),
        "trace.accounted_share": (
            accounted / (traced["window_wall_s"] * 1e3), "share"),
    })
    return plain, {name: _metric(value, unit)
                   for name, (value, unit) in values.items()}, problems


def main() -> int:
    args = _arguments()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    manifest = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    record, metrics, problems = \
        (per_layer if args.trace else end_to_end)(args)
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    if not problems and set(metrics) != {m["name"] for m in declared}:
        problems.append("metrics differ from BENCHMARK.json")
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, record.get("attempted", 1)),
        "failed": record.get("failed", 0),
        "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
