"""Seed -> inputs of the four spine workloads.

Everything the program under test receives is built here: one or two
:class:`Cell` objects per workload, each a library ``Scenario`` plus the
chat send schedule the harness plays into it.  A seed only **permutes**
roles and order (which node ids are mobile, send, crash or commute; the
order of a fixed multiset of text lengths; send-time jitter below a fifth
of the send interval) — totals never change with the seed, so runs under
different seeds do equal work.  All draws come from string-seeded
``random.Random`` streams, which are independent of ``PYTHONHASHSEED`` and
of the process; :func:`digest` is the byte-equality witness.

``seconds`` sizes the work: the constants below were tuned on the
reference box (2 cores) so that ``seconds=20`` gives a timed window of
18-22 s of host time.  Workloads whose unit of work is a protocol period
(a crash/recover cycle, a handoff) scale the number of slices; the others
keep :data:`SLICES` slices and scale the work per slice.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import NamedTuple

from repro.scenarios import (Crash, Handoff, NodeSpec, Recover, Scenario,
                             SetLoss, bernoulli)

WORKLOADS = ("sim_chat_flood", "sim_churn", "sim_adapt_cycle",
             "live_udp_closed")

#: Slices of the workloads that scale work per slice.
SLICES = 32
#: Virtual seconds before a simulated window opens (first stack deployed
#: at ~3 s with the 2 s publish/evaluate periods; checked at the edge).
WARM_S = 6.0
#: Virtual seconds kept after the last slice edge so every send drains.
TAIL_S = 3.0

SHORT_TEXT, LONG_TEXT = 16, 400
#: The fixed multiset of text lengths a seed shuffles: half short, half long.
LENGTHS = (SHORT_TEXT,) * 32 + (LONG_TEXT,) * 32


class Send(NamedTuple):
    """One scheduled chat send: ``sender`` says its ``k``-th message."""

    at: float
    sender: str
    k: int
    length: int


@dataclass(frozen=True)
class Cell:
    """One group run on one backend: the scenario and what is sent into it."""

    backend: str                      # "sim" or "live"
    scenario: Scenario
    #: Deployed-configuration prefix every node must run when the window
    #: opens (the first stack the policy chooses for this membership).
    first_stack: str
    #: Receivers no event crashes, removes or adds.
    stable: tuple[str, ...]
    #: sim: slice edges in virtual seconds (``len(slices) + 1`` of them).
    edges: tuple[float, ...] = ()
    #: sim: the open-loop schedule, sorted by time.
    sends: tuple[Send, ...] = ()
    #: sim: instants of the scheduled context changes (adapt cycle only).
    changes: tuple[float, ...] = ()
    #: live: closed-loop senders, messages each keeps outstanding, text
    #: length pattern per sender (cycled), messages per slice and slices.
    senders: tuple[str, ...] = ()
    outstanding: int = 0
    lengths: tuple[tuple[int, ...], ...] = ()
    per_slice: int = 0
    slices: int = 0


def text_of(sender: str, k: int, length: int) -> str:
    """The unique chat text of ``sender``'s ``k``-th message."""
    return f"{sender}:{k}:".ljust(length, "x")


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"spine:{seed}:{purpose}")


def _shuffled(items, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _open_loop(senders, edges, per_slice: int, rng: random.Random,
               lengths) -> tuple[Send, ...]:
    """``per_slice`` paced sends per sender in every slice, jittered by
    less than a fifth of the interval, all landing well inside the slice."""
    sends = []
    counters = {sender: 0 for sender in senders}
    for start, end in zip(edges, edges[1:]):
        interval = (end - start) / per_slice
        for sender in senders:
            for j in range(per_slice):
                k = counters[sender]
                counters[sender] = k + 1
                at = start + j * interval + rng.uniform(0.0, interval / 5.0)
                sends.append(Send(at, sender, k, lengths[sender][
                    k % len(lengths[sender])]))
    sends.sort(key=lambda s: (s.at, s.sender, s.k))
    return tuple(sends)


def _edges(slices: int, slice_s: float) -> tuple[float, ...]:
    return tuple(WARM_S + index * slice_s for index in range(slices + 1))


def _periods(seconds: float, host_s: float) -> int:
    """Slices of a period-driven workload whose slice takes ``host_s``."""
    return max(1, round(seconds / host_s))


# -- the four workloads -------------------------------------------------------


def sim_chat_flood(seed: int, seconds: float) -> tuple[Cell, ...]:
    rng = _rng(seed, "flood")
    ids = [f"n{index:02d}" for index in range(16)]
    order = _shuffled(ids, rng)
    mobile = set(order[:8])
    fixed = [node for node in order if node not in mobile]
    senders = sorted(_shuffled(fixed, rng)[:4] +
                     _shuffled(sorted(mobile), rng)[:4])
    # 40 msg/s per sender; a slice is 0.12 virtual s per second asked for.
    slice_s = 0.12 * seconds
    per_slice = max(1, round(40 * slice_s))
    edges = _edges(SLICES, slice_s)
    lengths = {sender: tuple(_shuffled(LENGTHS, rng)) for sender in senders}
    scenario = Scenario(
        name="spine_chat_flood", duration_s=edges[-1] + TAIL_S,
        nodes=tuple(NodeSpec(node, "mobile" if node in mobile else "fixed")
                    for node in ids),
        # Long background periods: background traffic stays under 5 %.
        heartbeat_interval=5.0, publish_interval=5.0)
    return (Cell("sim", scenario, "hybrid", tuple(ids), edges=edges,
                 sends=_open_loop(senders, edges, per_slice, rng, lengths)),)


def sim_churn(seed: int, seconds: float) -> tuple[Cell, ...]:
    rng = _rng(seed, "churn")
    period = 12.0
    slices = _periods(seconds, 1.25)
    fixed = [f"f{index:02d}" for index in range(16)]
    mobile = [f"m{index:02d}" for index in range(16)]
    victims = _shuffled(mobile, rng)[:10]
    sender = rng.choice(fixed)
    edges = _edges(slices, period)
    events = []
    for index, start in enumerate(edges[:-1]):
        victim = victims[index % len(victims)]
        events.append(Crash(start + 1.0, node=victim))
        events.append(Recover(start + 7.0, node=victim))
    lengths = {sender: tuple(_shuffled(LENGTHS, rng))}
    scenario = Scenario(
        name="spine_churn", duration_s=edges[-1] + TAIL_S,
        nodes=tuple(NodeSpec(node, "fixed") for node in fixed) +
        tuple(NodeSpec(node, "mobile") for node in mobile),
        events=tuple(events), heartbeat_interval=1.0)
    stable = tuple(node for node in fixed + mobile if node not in victims)
    return (Cell("sim", scenario, "hybrid", stable, edges=edges,
                 sends=_open_loop([sender], edges, 24, rng, lengths)),)


def sim_adapt_cycle(seed: int, seconds: float) -> tuple[Cell, ...]:
    slices = _periods(seconds, 1.33)

    # Cell A: a commuter among 16 fixed nodes, hybrid policy; one handoff
    # per 10 virtual s, four per slice (two plain -> Mecho -> plain trips).
    rng = _rng(seed, "adapt-a")
    ids = [f"a{index:02d}" for index in range(17)]
    commuter = rng.choice(ids)
    sender = rng.choice([node for node in ids if node != commuter])
    edges = _edges(slices, 40.0)
    changes = tuple(WARM_S + 1.0 + 10.0 * index
                    for index in range(4 * slices))
    events = tuple(
        Handoff(at, node=commuter, to="mobile" if index % 2 == 0 else "fixed")
        for index, at in enumerate(changes))
    lengths = {sender: tuple(_shuffled(LENGTHS, rng))}
    cell_a = Cell(
        "sim",
        Scenario(name="spine_adapt_handoff", duration_s=edges[-1] + TAIL_S,
                 nodes=tuple(NodeSpec(node, "fixed") for node in ids),
                 events=events, heartbeat_interval=1.0),
        "plain", tuple(ids), edges=edges, changes=changes,
        sends=_open_loop([sender], edges, 160, rng, lengths))

    # Cell B: one mobile among five fixed, loss-adaptive policy; the cell's
    # loss swaps 0.01 <-> 0.20 every 15 virtual s (plain <-> FEC), two per
    # slice.  The mobile sends, so every copy crosses the lossy hop.
    rng = _rng(seed, "adapt-b")
    ids = [f"b{index}" for index in range(6)]
    mobile = rng.choice(ids)
    edges = _edges(slices, 30.0)
    changes = tuple(WARM_S + 1.0 + 15.0 * index
                    for index in range(2 * slices))
    events = tuple(
        SetLoss(at, segment="wireless",
                link=bernoulli(0.20 if index % 2 == 0 else 0.01))
        for index, at in enumerate(changes))
    lengths = {mobile: tuple(_shuffled(LENGTHS, rng))}
    cell_b = Cell(
        "sim",
        Scenario(name="spine_adapt_loss", duration_s=edges[-1] + TAIL_S,
                 nodes=tuple(NodeSpec(node, "mobile" if node == mobile
                                      else "fixed") for node in ids),
                 events=events, policy="loss_adaptive",
                 wireless=bernoulli(0.01), heartbeat_interval=1.0,
                 # Lost context samples and configurations are re-sent on
                 # these ticks; at the default 2 s a redeploy under 20 %
                 # loss can outlast the 15 s period (seen: 1 in ~150).
                 publish_interval=0.5, evaluate_interval=0.5),
        "plain", tuple(ids), edges=edges, changes=changes,
        sends=_open_loop([mobile], edges, 120, rng, lengths))
    return (cell_a, cell_b)


def live_udp_closed(seed: int, seconds: float) -> tuple[Cell, ...]:
    rng = _rng(seed, "live")
    ids = [f"n{index}" for index in range(6)]
    order = _shuffled(ids, rng)
    mobile = set(order[:3])
    senders = tuple(sorted(order[1:4]))          # a mix of both kinds
    outstanding = 8
    per_slice = max(outstanding * len(senders), round(40 * seconds))
    scenario = Scenario(
        name="spine_live_closed", duration_s=3600.0,
        nodes=tuple(NodeSpec(node, "mobile" if node in mobile else "fixed")
                    for node in ids),
        heartbeat_interval=1.0, publish_interval=0.5, evaluate_interval=0.5)
    return (Cell("live", scenario, "hybrid", tuple(ids), senders=senders,
                 outstanding=outstanding,
                 lengths=tuple(tuple(_shuffled(LENGTHS, rng))
                               for _ in senders),
                 per_slice=per_slice, slices=SLICES),)


_BUILDERS = {"sim_chat_flood": sim_chat_flood, "sim_churn": sim_churn,
             "sim_adapt_cycle": sim_adapt_cycle,
             "live_udp_closed": live_udp_closed}


def build(name: str, seed: int, seconds: float) -> tuple[Cell, ...]:
    """The cells of workload ``name`` for ``seed``, sized for ``seconds``."""
    return _BUILDERS[name](seed, seconds)


def digest(cells: tuple[Cell, ...]) -> str:
    """SHA-256 over the canonical text of the generated inputs."""
    return hashlib.sha256(repr(cells).encode()).hexdigest()
