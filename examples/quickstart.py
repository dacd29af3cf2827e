#!/usr/bin/env python3
"""Quickstart: a hybrid chat group that adapts its stack automatically.

Builds the paper's demonstration scenario — one fixed host, two mobile
devices, a chat application — lets Morpheus adapt the communication stack
to the hybrid context, and shows the effect on the mobile device's
transmission counter.

Run with: ``python examples/quickstart.py``
"""

from repro.core import build_morpheus_group
from repro.simnet import Network, SimEngine


def main() -> None:
    # 1. A simulated hybrid network: a wired host plus two PDAs.
    engine = SimEngine()
    network = Network(engine)
    network.add_fixed_node("fixed-0")
    network.add_mobile_node("mobile-0")
    network.add_mobile_node("mobile-1")

    # 2. Morpheus on every device: control channel (Cocaditem + Core) and a
    #    data channel that starts with the plain, non-adaptive stack.
    nodes = build_morpheus_group(network, publish_interval=2.0,
                                 evaluate_interval=2.0)
    print("initial stack  :", " / ".join(nodes["mobile-0"].current_stack()))

    # 3. Let context flow.  Core detects the hybrid scenario and deploys
    #    Mecho: wired mode on the fixed host, wireless mode on the PDAs.
    engine.run_until(15.0)
    print("adapted stack  :", " / ".join(nodes["mobile-0"].current_stack()))

    # 4. Chat.  Each mobile send is now a single uplink transmission; the
    #    fixed relay fans it out.
    network.reset_stats()
    for index in range(10):
        nodes["mobile-0"].send(f"hello #{index}")
    engine.run_until(20.0)

    print("\nchat history at fixed-0:")
    for delivery in nodes["fixed-0"].chat.history:
        print(f"  [{delivery.time:6.2f}s] {delivery.source}: {delivery.text}")

    stats = network.stats_of("mobile-0")
    print(f"\nmobile-0 sent {stats.sent_data} data messages for 10 chat "
          f"sends (plain stack would have sent {10 * 2})")
    assert stats.sent_data == 10


if __name__ == "__main__":
    main()
