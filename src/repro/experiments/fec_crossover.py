"""Ablation A2 — error recovery: retransmission (ARQ) vs FEC (paper §2).

Sweeps the wireless loss rate and compares the two recovery strategies the
paper uses to motivate run-time adaptation:

* **ARQ** (detect and recover): reliable layer, NACK + retransmission —
  cheap at low loss, but recovery costs a round trip and the NACK traffic
  grows with the loss rate;
* **FEC** (mask the errors): Reed–Solomon parity — fixed ``m/k`` overhead,
  no recovery round trips.

Reported per loss point: total network transmissions (overhead), delivery
ratio, and mean delivery latency.  Expected shape: ARQ wins on overhead at
small loss; FEC's flat overhead and latency win as loss grows — the
crossover the paper's §2 argues makes static configuration impossible.

Run with: ``python -m repro.experiments.fec_crossover``
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from typing import Optional

from repro.apps.workload import PacedSender
from repro.experiments.ministacks import arq_stack, build_ministack, fec_stack
from repro.experiments.report import format_table
from repro.simnet.engine import SimEngine
from repro.simnet.loss import BernoulliLoss
from repro.simnet.network import LinkParams, Network

PAPER_LOSS_POINTS = (0.0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40)


@dataclass
class RecoveryResult:
    """Counters for one (loss, strategy) run."""

    loss: float
    strategy: str
    total_sent: int
    delivery_ratio: float
    mean_latency_ms: float
    recovered: int = 0
    nacks: int = 0


def run_recovery(loss: float, strategy: str, *, num_nodes: int = 4,
                 messages: int = 200, rate: float = 20.0, seed: int = 7,
                 k: int = 8, m: int = 2) -> RecoveryResult:
    """One cell of the sweep: a mobile sender behind one lossy wireless hop
    multicasting to ``num_nodes - 1`` fixed receivers."""
    engine = SimEngine()
    wireless = LinkParams(latency_s=0.002, bandwidth_bps=11e6,
                          loss=BernoulliLoss(loss, random.Random(seed)))
    network = Network(engine, wireless=wireless)
    member_ids = ["m0"] + [f"r{index}" for index in range(num_nodes - 1)]
    network.add_mobile_node("m0")
    for node_id in member_ids[1:]:
        network.add_fixed_node(node_id)
    members_csv = ",".join(member_ids)

    probes = {}
    for node_id in member_ids:
        middle = arq_stack(members_csv) if strategy == "arq" \
            else fec_stack(members_csv, k=k, m=m)
        probes[node_id] = build_ministack(network, node_id, member_ids,
                                          middle)

    sender = probes["m0"]
    pacer = PacedSender(engine, sender.send, messages, rate, start=0.5,
                        make_payload=lambda i: ("msg", i))
    last = pacer.schedule_all()
    engine.run_until(last + 15.0)

    receivers = [probes[node_id] for node_id in member_ids[1:]]
    expected = messages * len(receivers)
    delivered = 0
    latencies = []
    for receiver in receivers:
        for delivery in receiver.deliveries:
            delivered += 1
            latency = receiver.latency_of(delivery, sender)
            if latency is not None:
                latencies.append(latency)
    total_sent = network.total_stats()["sent_total"]
    recovered = nacks = 0
    for node_id in member_ids:
        channel = network.node(node_id).kernel.find_channel("data")
        fec_session = channel.session_named("fec")
        reliable_session = channel.session_named("reliable")
        if fec_session is not None:
            recovered += fec_session.recovered_count
        if reliable_session is not None:
            nacks += reliable_session.nacks_sent
    return RecoveryResult(
        loss=loss, strategy=strategy, total_sent=total_sent,
        delivery_ratio=delivered / expected if expected else 1.0,
        mean_latency_ms=(sum(latencies) / len(latencies) * 1000.0)
        if latencies else 0.0,
        recovered=recovered, nacks=nacks)


def run_sweep(loss_points=PAPER_LOSS_POINTS,
              **kwargs) -> list[tuple[RecoveryResult, RecoveryResult]]:
    """ARQ and FEC at every loss point."""
    return [(run_recovery(loss, "arq", **kwargs),
             run_recovery(loss, "fec", **kwargs))
            for loss in loss_points]


def format_sweep(pairs) -> str:
    rows = []
    for arq, fec in pairs:
        rows.append([
            f"{arq.loss:.2f}",
            arq.total_sent, fec.total_sent,
            f"{arq.delivery_ratio:.3f}", f"{fec.delivery_ratio:.3f}",
            f"{arq.mean_latency_ms:.1f}", f"{fec.mean_latency_ms:.1f}",
            arq.nacks, fec.recovered,
        ])
    return ("A2 — error recovery: ARQ (retransmit) vs FEC (mask)\n" +
            format_table(
                ["loss", "arq sent", "fec sent", "arq dlv", "fec dlv",
                 "arq lat(ms)", "fec lat(ms)", "nacks", "fec recovered"],
                rows))


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--messages", type=int, default=200)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    pairs = run_sweep(messages=args.messages, num_nodes=args.nodes,
                      seed=args.seed)
    print(format_sweep(pairs))


if __name__ == "__main__":
    main()
