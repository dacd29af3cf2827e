#!/usr/bin/env python3
"""Error-recovery adaptation: retransmission ↔ FEC as the loss rate moves.

The paper's §2 motivating example made executable: *"the network error rate
may influence the type of error recovery: for small error rates it is
preferable to detect and recover (using retransmissions) while for larger
error rates it is preferable to mask the errors"*.

A mobile sender chats through a wireless link whose loss rate degrades
mid-run (interference) and later recovers.  A one-rule policy, the
``loss_adaptive`` rule, watches the ``link_quality`` attribute Cocaditem
disseminates and swaps the data stack between the ARQ configuration and
the FEC configuration.

Run with: ``python examples/error_adaptive_fec.py``
"""

import random

from repro.core import build_morpheus_group, engine_from_spec
from repro.kernel.xml_config import PolicySpec, RuleSpec
from repro.simnet import BernoulliLoss, LinkParams, Network, SimEngine


def main() -> None:
    engine = SimEngine()
    loss = BernoulliLoss(0.0, random.Random(11))
    wireless = LinkParams(latency_s=0.002, bandwidth_bps=11e6, loss=loss)
    network = Network(engine, wireless=wireless)
    network.add_mobile_node("mobile-0")
    for index in range(3):
        network.add_fixed_node(f"fixed-{index}")

    policy = engine_from_spec(
        PolicySpec("error_recovery", (RuleSpec(
            "loss_adaptive", {"threshold": 0.08, "k": 8, "m": 2}),)),
        stack_options={"heartbeat_interval": 5.0})
    nodes = build_morpheus_group(network, policy=policy,
                                 publish_interval=2.0, evaluate_interval=2.0)
    sender = nodes["mobile-0"]
    for node_id, morpheus in nodes.items():
        morpheus.core.on_reconfigured = (
            lambda name, n=node_id: print(
                f"[{engine.now():7.2f}s] {n}: reconfigured to {name!r}"))

    def stack() -> str:
        return " / ".join(sender.current_stack())

    # Continuous chat throughout.
    total = 400
    for index in range(total):
        engine.call_at(1.0 + index * 0.25,
                       lambda i=index: sender.send(f"m-{i}"))

    print(f"[{engine.now():7.2f}s] clean link, stack: {stack()}")
    engine.run_until(30.0)

    print(f"[{engine.now():7.2f}s] >>> interference: loss jumps to 20%")
    loss.probability = 0.20
    engine.run_until(70.0)
    print(f"[{engine.now():7.2f}s] degraded link, stack: {stack()}")
    assert "fec" in sender.current_stack(), "expected the FEC stack"

    print(f"[{engine.now():7.2f}s] >>> interference clears: loss back to 0%")
    loss.probability = 0.0
    engine.run_until(120.0)
    print(f"[{engine.now():7.2f}s] clean again, stack: {stack()}")
    assert "fec" not in sender.current_stack(), "expected the ARQ stack back"

    expected = [f"m-{i}" for i in range(total)]
    for node_id, morpheus in nodes.items():
        assert morpheus.chat.texts() == expected, node_id
    print(f"\nall {total} messages delivered everywhere, in order, across "
          "two stack swaps driven by link quality")


if __name__ == "__main__":
    main()
