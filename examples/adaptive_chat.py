#!/usr/bin/env python3
"""Adaptive chat under churn: adaptation, relay failure, re-adaptation.

The richest end-to-end scenario in the repository:

1. a six-device hybrid group (one fixed host, five PDAs) starts chatting on
   the plain stack;
2. Morpheus adapts to Mecho (mobile sends drop to a single uplink message);
3. the fixed relay **crashes** mid-conversation; the failure detector
   excludes it, the group re-forms, and Core — now seeing an all-mobile
   context — reconfigures back to the plain stack;
4. the conversation continues; nothing is lost except the dead node.

Run with: ``python examples/adaptive_chat.py``

**Live mode**: ``python examples/adaptive_chat.py --live`` runs the same
architecture as *real* localhost processes — one OS process per device,
each owning its own UDP socket, kernel, and wall-clock scheduler, talking
exclusively through datagrams (:mod:`repro.livenet`).  The parent process
only brokers the address book and checks the outcome; every protocol
message crosses a real socket.  The group boots on the plain stack,
Morpheus senses the hybrid context over the wire, and Core reconfigures
every process to Mecho mid-conversation — with no chat message lost.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import subprocess
import sys

from repro.core import build_morpheus_group
from repro.simnet import Network, SimEngine


def main() -> None:
    engine = SimEngine()
    network = Network(engine)
    network.add_fixed_node("fixed-0")
    mobiles = [f"mobile-{index}" for index in range(5)]
    for node_id in mobiles:
        network.add_mobile_node(node_id)

    nodes = build_morpheus_group(network, publish_interval=2.0,
                                 evaluate_interval=2.0,
                                 heartbeat_interval=1.0)
    log = print

    def stack_of(node_id: str) -> str:
        return " / ".join(nodes[node_id].current_stack())

    # Watch reconfigurations from every node's Core.
    for node_id, morpheus in nodes.items():
        morpheus.core.on_reconfigured = (
            lambda name, n=node_id: log(
                f"[{engine.now():7.2f}s] {n}: group reconfigured to {name!r}"))

    log(f"[{engine.now():7.2f}s] initial stack: {stack_of('mobile-0')}")

    # Phase 1: chat on the plain stack while Morpheus learns the context.
    for index in range(5):
        engine.call_at(1.0 + index, lambda i=index: nodes["mobile-1"].send(
            f"plain-era message {i}"))
    engine.run_until(15.0)
    log(f"[{engine.now():7.2f}s] adapted stack: {stack_of('mobile-0')}")

    # Phase 2: chat over Mecho.
    for index in range(5):
        engine.call_at(16.0 + index, lambda i=index: nodes["mobile-2"].send(
            f"mecho-era message {i}"))
    engine.run_until(25.0)

    # Phase 3: the relay dies mid-conversation.
    log(f"[{engine.now():7.2f}s] !!! crashing fixed-0 (the Mecho relay)")
    network.crash_node("fixed-0")
    for index in range(10):
        engine.call_at(26.0 + index, lambda i=index: nodes["mobile-3"].send(
            f"post-crash message {i}"))
    engine.run_until(60.0)
    log(f"[{engine.now():7.2f}s] final stack: {stack_of('mobile-0')}")

    survivors = [nodes[node_id] for node_id in mobiles]
    membership = survivors[0].local_module.data_channel \
        .session_named("membership")
    log(f"[{engine.now():7.2f}s] final view: {membership.view.members}")

    expected = [f"plain-era message {i}" for i in range(5)] + \
        [f"mecho-era message {i}" for i in range(5)] + \
        [f"post-crash message {i}" for i in range(10)]
    for morpheus in survivors:
        texts = morpheus.chat.texts()
        assert texts == expected, (morpheus.node_id, texts)
    assert "beb" in stack_of("mobile-0")  # re-adapted to plain
    assert membership.view.members == tuple(sorted(mobiles))
    log("\nall surviving devices delivered all 20 messages, in order, "
        "through two reconfigurations and a relay crash")


# -- live mode: one real OS process per device --------------------------------

#: Chat lines each process contributes in live mode.
MESSAGES_PER_NODE = 4
#: Virtual horizon of the live run (seconds); sends finish by ~14 s and
#: the rest is margin for the reconfiguration to settle everywhere.
LIVE_HORIZON_S = 30.0


def _live_worker(node_id: str, time_scale: float) -> None:
    """One device: own socket, own kernel, own wall clock.

    Handshake with the parent over stdio: print our bound UDP address as a
    JSON line, read the full address book back, then run the scenario and
    print the outcome as a second JSON line.
    """
    from repro.core.morpheus import MorpheusNode
    from repro.livenet import LiveNetwork, WallClock

    async def run() -> dict:
        clock = WallClock(time_scale=time_scale)
        net = LiveNetwork(clock, impaired=False)
        host, port = await net.open_endpoint(node_id)
        print(json.dumps({"node": node_id, "host": host, "port": port}),
              flush=True)
        book = json.loads(sys.stdin.readline())
        for peer, address in book.items():
            if peer != node_id:
                net.register_peer(peer, address[0], address[1])
        if node_id.startswith("fixed"):
            net.add_fixed_node(node_id)
        else:
            net.add_mobile_node(node_id)

        members = sorted(book)
        node = MorpheusNode(net, node_id, members, publish_interval=2.0,
                            evaluate_interval=2.0, heartbeat_interval=1.0)
        reconfigured = []
        node.core.on_reconfigured = reconfigured.append

        # This device's share of the conversation, staggered so senders
        # interleave across processes (virtual seconds; the clock anchors
        # at run start, so boot skew between processes never eats into
        # the schedule).
        index = members.index(node_id)
        for k in range(MESSAGES_PER_NODE):
            text = f"{node_id} line {k}"
            clock.call_later(6.0 + 2.0 * k + 0.3 * index,
                             lambda t=text: node.send(t))
        try:
            await clock.run_until(LIVE_HORIZON_S)
        finally:
            await net.close()

        membership = node.local_module.data_channel \
            .session_named("membership")
        return {
            "node": node_id,
            "texts": node.chat.texts(),
            "view": list(membership.view.members),
            "stack": node.current_stack(),
            "reconfigured_to": reconfigured,
            "delivered_packets": net.delivered_packets,
        }

    print(json.dumps(asyncio.run(run())), flush=True)


def _read_json_line(proc: subprocess.Popen, node_id: str) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(
            f"worker {node_id} exited without answering "
            f"(returncode={proc.poll()})")
    return json.loads(line)


def live_main(num_nodes: int, time_scale: float) -> None:
    """Spawn one process per device and referee the conversation."""
    if num_nodes < 4:
        raise SystemExit("--nodes must be at least 4 (one fixed host plus "
                         "enough PDAs for a hybrid group)")
    node_ids = ["fixed-0"] + [f"mobile-{i}" for i in range(1, num_nodes)]
    log = print
    log(f"spawning {num_nodes} localhost processes (time scale "
        f"{time_scale:g}x): {', '.join(node_ids)}")

    procs: dict[str, subprocess.Popen] = {}
    try:
        for node_id in node_ids:
            procs[node_id] = subprocess.Popen(
                [sys.executable, __file__, "--live-worker", node_id,
                 "--time-scale", str(time_scale)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

        # Address-book handshake: collect every worker's bound socket,
        # then broadcast the complete book.
        book = {}
        for node_id, proc in procs.items():
            hello = _read_json_line(proc, node_id)
            book[hello["node"]] = (hello["host"], hello["port"])
            log(f"  {hello['node']} listening on "
                f"{hello['host']}:{hello['port']} (pid {proc.pid})")
        for proc in procs.values():
            proc.stdin.write(json.dumps(book) + "\n")
            proc.stdin.flush()

        log("group running; every message below crossed a real UDP "
            "socket between processes...")
        results = {node_id: _read_json_line(proc, node_id)
                   for node_id, proc in procs.items()}
        for proc in procs.values():
            proc.wait(timeout=30)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()

    # Referee: every process delivered every line, per-sender in order.
    expected = sorted(f"{node_id} line {k}"
                      for node_id in node_ids
                      for k in range(MESSAGES_PER_NODE))
    for node_id, outcome in sorted(results.items()):
        texts = outcome["texts"]
        log(f"  {node_id}: delivered {len(texts)} lines, view "
            f"{outcome['view']}, stack {' / '.join(outcome['stack'])}")
        assert sorted(texts) == expected, (node_id, texts)
        for sender in node_ids:  # FIFO per sender, whatever the interleaving
            sub = [t for t in texts if t.startswith(f"{sender} line")]
            assert sub == [f"{sender} line {k}"
                           for k in range(MESSAGES_PER_NODE)], (node_id, sub)
        assert outcome["view"] == sorted(node_ids), (node_id, outcome)
        assert outcome["delivered_packets"] > 0

    # The adaptation happened over the wire: the hybrid context was
    # sensed, shipped, aggregated, and acted on across process boundaries.
    adapted = [n for n, outcome in results.items()
               if "mecho" in outcome["stack"]]
    assert adapted == sorted(node_ids), (
        f"only {adapted} reconfigured to mecho")
    total = num_nodes * MESSAGES_PER_NODE
    log(f"\nall {num_nodes} processes delivered all {total} lines and "
        "reconfigured to the Mecho stack, entirely over localhost UDP")


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--live", action="store_true",
                        help="run as real localhost processes over UDP")
    parser.add_argument("--nodes", type=int, default=5,
                        help="process count in live mode (default 5, min 4)")
    parser.add_argument("--time-scale", type=float, default=5.0,
                        help="virtual seconds per real second in live mode")
    parser.add_argument("--live-worker", metavar="NODE_ID",
                        help=argparse.SUPPRESS)  # internal: spawned by --live
    return parser.parse_args()


if __name__ == "__main__":
    args = _parse_args()
    if args.live_worker:
        _live_worker(args.live_worker, args.time_scale)
    elif args.live:
        live_main(args.nodes, args.time_scale)
    else:
        main()
