"""Runs a workload's cells around the public runners and records the window.

Everything here reads the host: ``time.process_time()`` (CPU seconds of
this process), ``time.perf_counter()`` (wall seconds) and the process's
resident memory.  The program is driven only through its public surface —
``ScenarioRunner(engine_factory=...)``, ``LiveScenarioRunner``,
``MorpheusNode.send`` and ``ChatSession.on_message`` — and the timed
window is cut into slices by stamps the engine (simulator) or the
completion counter (live) fires.  A host-time metric is the octile of
its per-slice values on the undisturbed side (see :func:`calm_octile`),
so a stall of the box moves the slices it hits and not the metric.
"""

from __future__ import annotations

import asyncio
import os
from collections import Counter
from functools import partial
from time import perf_counter, process_time

from repro.livenet.clock import WallClock
from repro.livenet.runner import LiveScenarioRunner
from repro.scenarios import ScenarioRunner
from repro.simnet.engine import SimEngine

from workloads import Cell, text_of

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20

#: Live: readiness is polled this often (virtual = wall seconds) ...
LIVE_POLL_S = 0.05
#: ... for at most this long, and the whole closed loop may take this long.
LIVE_READY_TIMEOUT_S = 20.0
LIVE_DEADLINE_S = 150.0


class WorkloadError(Exception):
    """The run cannot be measured: the program did not behave."""


class _SetupDone(Exception):
    """Raised at the window edge of a set-up-only run to stop the runner."""


def rss_mb() -> float:
    """Resident set of this process right now, in MB."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE_MB


class Recorder:
    """What one cell's run leaves behind."""

    def __init__(self) -> None:
        self.deliveries = 0
        self.sends = 0
        #: One ``(cpu_s, wall_s, deliveries, rss_mb)`` per slice edge.
        self.stamps: list[tuple[float, float, int, float]] = []
        self.started_at = perf_counter()
        self.booted_at = 0.0
        self.opened_at = 0.0
        self.counters: Counter = Counter()
        self.spans: dict[str, dict] = {}
        #: ``(sender, k) -> instant`` the message was handed to the stack.
        self.sent_at: dict[tuple[str, int], float] = {}
        self.problems: list[str] = []

    def on_message(self, delivery) -> None:
        self.deliveries += 1

    def stamp(self) -> None:
        self.stamps.append((process_time(), perf_counter(), self.deliveries,
                            rss_mb()))

    def slices(self) -> list[tuple[float, float, int]]:
        return [(b[0] - a[0], b[1] - a[1], b[2] - a[2])
                for a, b in zip(self.stamps, self.stamps[1:])]


def _counters(runner) -> Counter:
    """The program's own counters, summed over nodes."""
    network = runner.network
    total: Counter = Counter()
    for node_id, morpheus in runner.morpheus.items():
        stats = network.stats_of(node_id)
        for event, count in stats.sent_by_event.items():
            total[f"sent.{event}"] += count
        total["packets"] += stats.sent_total
        total["wire_bytes"] += stats.sent_wire_bytes_total
        total["dispatched"] += morpheus.node.kernel.dispatched_count
        total["timers"] += morpheus.node.kernel.timer_dispatched_count
    total["engine_events"] = runner.engine.fired_count
    total["delivered"] = network.delivered_packets
    total["lost"] = network.lost_packets
    return total


def _check_ready(cell: Cell, runner) -> str:
    """Empty when every node is in one common view on the first stack."""
    nodes = runner.morpheus
    members = tuple(sorted(nodes))
    for node_id, node in nodes.items():
        if tuple(sorted(node.core.members)) != members:
            return f"{node_id} sees control view {node.core.members}"
        if not node.core.deployed_name.startswith(cell.first_stack):
            return f"{node_id} runs {node.core.deployed_name}"
        if not node.chat.ready:
            return f"{node_id}'s chat session is blocked"
    return ""


def _open(runner, rec: Recorder, tracer) -> None:
    rec.counters = _counters(runner)
    if tracer is not None:
        tracer.open()
    rec.opened_at = perf_counter()
    rec.stamp()


def _close(runner, rec: Recorder, tracer) -> None:
    rec.stamp()
    if tracer is not None:
        rec.spans = tracer.close()
    after = _counters(runner)
    after.subtract(rec.counters)
    rec.counters = after


# -- simulator ----------------------------------------------------------------


def run_sim_cell(cell: Cell, seed: int, tracer, setup_only: bool):
    """One open-loop cell on the simulator; returns ``(recorder, runner,
    result)`` (``result`` is ``None`` for a set-up-only run)."""
    rec = Recorder()
    by_slice: list[list] = [[] for _ in cell.edges[1:]]
    index = 0
    for send in cell.sends:
        while send.at >= cell.edges[index + 1]:
            index += 1
        by_slice[index].append(send)

    def say(send) -> None:
        rec.sends += 1
        runner.morpheus[send.sender].send(
            text_of(send.sender, send.k, send.length))

    def booted() -> None:
        rec.booted_at = perf_counter()
        for node in runner.morpheus.values():
            node.chat.on_message = rec.on_message

    def edge(index: int) -> None:
        # Slice ``index`` starts here: its sends are queued before the
        # stamp, so that harness work falls in the slice before.
        if index < len(by_slice):
            for send in by_slice[index]:
                rec.sent_at[(send.sender, send.k)] = send.at
                engine.call_at(send.at, partial(say, send))
        if index == 0:
            problem = _check_ready(cell, runner)
            if problem:
                raise WorkloadError(f"not warm at {cell.edges[0]}s: "
                                    f"{problem}")
            if setup_only:
                rec.opened_at = perf_counter()
                raise _SetupDone
            _open(runner, rec, tracer)
        elif index == len(by_slice):
            _close(runner, rec, tracer)
        else:
            rec.stamp()

    engine = SimEngine()

    def factory():
        engine.call_at(0.0, booted)
        for index, at in enumerate(cell.edges):
            engine.call_at(at, partial(edge, index))
        return engine

    runner = ScenarioRunner(cell.scenario, seed=seed, engine_factory=factory)
    try:
        result = runner.run()
    except _SetupDone:
        result = None
    return rec, runner, result


# -- live UDP -------------------------------------------------------------------


def run_live_cell(cell: Cell, seed: int, tracer, setup_only: bool):
    """One closed-loop cell over loopback UDP sockets, in this thread's
    asyncio loop; returns ``(recorder, runner, None)``."""
    rec = Recorder()
    runner = LiveScenarioRunner(cell.scenario, seed=seed, time_scale=1.0)
    nodes = len(cell.scenario.nodes)
    total = cell.per_slice * cell.slices
    lengths = dict(zip(cell.senders, cell.lengths))
    next_k = {sender: 0 for sender in cell.senders}
    pending: dict[str, int] = {}
    state = {"issued": 0, "completed": 0}
    clock = WallClock(time_scale=1.0)
    finished = asyncio.Event()

    def fail(reason: str) -> None:
        rec.problems.append(reason)
        finished.set()

    def say(sender: str) -> None:
        k = next_k[sender]
        next_k[sender] = k + 1
        text = text_of(sender, k, lengths[sender][k % len(lengths[sender])])
        pending[text] = 0
        state["issued"] += 1
        rec.sends += 1
        rec.sent_at[(sender, k)] = clock.now()
        runner.morpheus[sender].send(text)

    def on_message(delivery) -> None:
        rec.deliveries += 1
        text = delivery.text
        seen = pending.get(text)
        if seen is None:
            fail(f"{text[:24]!r} delivered after it was complete")
        elif seen + 1 < nodes:
            pending[text] = seen + 1
        else:
            # Complete: delivered at every node.  The sender replaces it.
            del pending[text]
            state["completed"] += 1
            if state["completed"] == total:
                _close(runner, rec, tracer)
                finished.set()
                return
            if state["completed"] % cell.per_slice == 0:
                rec.stamp()
            if state["issued"] < total:
                say(delivery.source)

    def booted() -> None:
        rec.booted_at = perf_counter()
        for node in runner.morpheus.values():
            node.chat.on_message = on_message
        clock.call_later(LIVE_POLL_S, poll_ready)

    def poll_ready() -> None:
        problem = _check_ready(cell, runner)
        if problem:
            if clock.now() > LIVE_READY_TIMEOUT_S:
                fail(f"not warm after {LIVE_READY_TIMEOUT_S}s: {problem}")
            else:
                clock.call_later(LIVE_POLL_S, poll_ready)
        elif setup_only:
            rec.opened_at = perf_counter()
            finished.set()
        else:
            _open(runner, rec, tracer)
            for sender in cell.senders:
                for _ in range(cell.outstanding):
                    say(sender)

    def factory():
        clock.call_at(0.0, booted)
        return clock

    runner.engine_factory = factory

    async def main() -> None:
        loop = asyncio.get_running_loop()
        # Exceptions in loop callbacks would otherwise only be logged.
        loop.set_exception_handler(
            lambda _, context: fail(
                f"{context.get('message')}: {context.get('exception')!r}"))
        run = asyncio.ensure_future(runner.run_async())
        wait = asyncio.ensure_future(finished.wait())
        await asyncio.wait({run, wait}, timeout=LIVE_DEADLINE_S,
                           return_when=asyncio.FIRST_COMPLETED)
        if not finished.is_set():
            rec.problems.append(
                f"live run ended or timed out with {state['completed']} of "
                f"{total} messages complete")
        run.cancel()        # run_async closes every socket in its finally
        wait.cancel()
        for outcome in await asyncio.gather(run, wait,
                                            return_exceptions=True):
            if isinstance(outcome, Exception) and \
                    not isinstance(outcome, asyncio.CancelledError):
                rec.problems.append(f"live runner raised {outcome!r}")

    asyncio.run(main())
    network = runner.network
    if network.decode_errors or network.socket_errors:
        rec.problems.append(f"{network.decode_errors} decode errors, "
                            f"{network.socket_errors} socket errors")
    rec.counters["decode_errors"] = network.decode_errors
    return rec, runner, None


# -- checking the outputs ---------------------------------------------------------


def calm_octile(values: list[float], better: str) -> float:
    """The octile of per-slice values on the side disturbance cannot
    reach: the lowest for a cost, the highest for a rate.

    On a shared host every disturbance adds time — seen on the reference
    box: a neighbour slowing 9 of 16 slices threefold for half a minute —
    so a low order statistic of equal-work slices estimates the
    undisturbed cost.  The octile (5th best of 32 slices, 3rd of 16) holds
    while an eighth of the slices ran undisturbed, where the median needs
    half of them, and unlike the minimum it is not one lucky slice.  The
    README has the comparison of median, quartile, octile, minimum and
    mean over ten seeds of every workload that picked it.
    """
    ordered = sorted(values, reverse=better == "higher")
    return ordered[len(ordered) // 8]


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0 for an empty list (not applicable)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))] \
        if ordered else 0.0


def verify(cell: Cell, rec: Recorder, runner, result) -> dict:
    """Correctness of one finished cell plus the numbers read off its
    delivery histories: ``attempted``, ``failed``, ``latencies_ms``,
    reconfiguration latencies and ``problems`` (reasons the run is wrong).
    """
    problems = list(rec.problems)
    sent = Counter(sender for sender, _ in rec.sent_at)
    attempted = failed = 0
    latencies: list[float] = []
    for receiver in cell.stable:
        seen: dict[str, list[int]] = {sender: [] for sender in sent}
        for delivery in runner.morpheus[receiver].chat.history:
            sender, k, _ = delivery.text.split(":", 2)
            k = int(k)
            seen[sender].append(k)
            latencies.append(
                (delivery.time - rec.sent_at[(sender, k)]) * 1e3)
        for sender, count in sent.items():
            got = seen[sender]
            attempted += count
            if got != list(range(count)):
                distinct = len(set(got))
                missing = count - distinct
                duplicated = len(got) - distinct
                disordered = sum(b < a for a, b in zip(got, got[1:]))
                failed += missing + duplicated + disordered
                problems.append(
                    f"{receiver} from {sender}: {missing} missing, "
                    f"{duplicated} duplicated, {disordered} out of order")
    reconfig_s: list[float] = []
    reconfigurations = 0
    if result is not None:
        views = set(result.control_views.values())
        if len(views) != 1 or len(next(iter(views))) != \
                len(cell.scenario.nodes):
            problems.append(f"{len(views)} final control views: "
                            f"{sorted(views, key=len)[:2]}")
        done = [at for at, _, _ in result.reconfigurations
                if cell.edges[0] <= at <= cell.edges[-1]]
        reconfigurations = len(done)
        for start, end in zip(cell.changes,
                              cell.changes[1:] + (cell.edges[-1],)):
            during = [at for at in done if start <= at < end]
            if len(during) != 1:
                problems.append(f"{len(during)} reconfigurations for the "
                                f"context change at {start}s")
            reconfig_s.extend(at - start for at in during[:1])
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "latencies_ms": latencies, "reconfig_s": reconfig_s,
            "reconfigurations": reconfigurations}


# -- one workload --------------------------------------------------------------------


def run_workload(cells: tuple[Cell, ...], seed: int, t0: float, tracer,
                 setup_only: bool) -> dict:
    """Run every cell in turn and fold them into one record.

    ``t0`` is the parent's ``perf_counter()`` just before it started this
    process (``CLOCK_MONOTONIC`` is shared by the processes of a host), so
    set-up time starts at process creation.  With two cells, slice ``i``
    is the sum of both cells' slice ``i`` and set-up is everything outside
    the two windows.
    """
    record = {"setup_s": 0.0, "build_ms": 0.0, "warmup_ms": 0.0}
    recorders, checks = [], []
    for cell in cells:
        drive = run_live_cell if cell.backend == "live" else run_sim_cell
        rec, runner, result = drive(cell, seed, tracer, setup_only)
        if rec.opened_at:
            record["setup_s"] += rec.opened_at - (t0 if not recorders
                                                  else rec.started_at)
            record["build_ms"] += (rec.booted_at - rec.started_at) * 1e3
            record["warmup_ms"] += (rec.opened_at - rec.booted_at) * 1e3
        recorders.append(rec)
        if not setup_only:
            checks.append(verify(cell, rec, runner, result))
    slices = [tuple(map(sum, zip(*parts)))
              for parts in zip(*(rec.slices() for rec in recorders))]
    if setup_only or not slices or any(n <= 0 for _, _, n in slices):
        # No window to report: a set-up-only run, or one that went wrong.
        record["problems"] = [problem for rec in recorders
                              for problem in rec.problems]
        if not setup_only and not record["problems"]:
            record["problems"] = [f"slices without deliveries: {slices}"]
        return record
    problems = [problem for check in checks for problem in check["problems"]]
    stamps = [stamp for rec in recorders for stamp in rec.stamps]
    counters: Counter = Counter()
    spans: dict[str, dict] = {}
    for rec in recorders:
        counters.update(rec.counters)
        for name, span in rec.spans.items():
            merged = spans.setdefault(name, {"calls": 0, "total_ms": 0.0,
                                             "self_ms": 0.0, "parent": ""})
            for key in ("calls", "total_ms", "self_ms"):
                merged[key] += span[key]
            merged["parent"] = merged["parent"] or span["parent"]
    latencies = [ms for check in checks for ms in check["latencies_ms"]]
    reconfig_s = [s for check in checks for s in check["reconfig_s"]]
    record.update(
        problems=problems,
        attempted=sum(check["attempted"] for check in checks),
        failed=sum(check["failed"] for check in checks),
        slices=slices,
        cpu_us_per_delivery=calm_octile(
            [1e6 * cpu / n for cpu, _, n in slices], "lower"),
        deliveries_per_wall_s=calm_octile(
            [n / wall for _, wall, n in slices], "higher"),
        window_cpu_s=sum(s[0] for s in slices),
        window_wall_s=sum(s[1] for s in slices),
        rss_growth_mb=stamps[-1][3] - stamps[len(stamps) // 3][3],
        sends=sum(rec.sends for rec in recorders),
        deliveries=sum(s[2] for s in slices),
        counters=dict(counters), spans=spans,
        latency_p50_ms=percentile(latencies, 0.50),
        latency_p99_ms=percentile(latencies, 0.99),
        reconfigurations=sum(check["reconfigurations"] for check in checks),
        reconfig_p50_s=percentile(reconfig_s, 0.50))
    return record
