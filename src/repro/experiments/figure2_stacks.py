"""Figure 2, executable — the two protocol-stack configurations.

The paper's Figure 2 is a diagram: (a) the homogeneous configuration
(application / group communication / network interface on every device) and
(b) the hybrid configuration with Mecho — ``Mecho/Wired`` on the fixed
device, ``Mecho/Wireless`` on the mobile devices.  This harness *deploys*
both configurations through the full Morpheus pipeline and renders the live
stacks, verifying that the running system matches the figure.

Run with: ``python -m repro.experiments.figure2_stacks``
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.core.morpheus import build_morpheus_group
from repro.simnet.engine import SimEngine
from repro.simnet.network import Network


def deploy_stacks(num_mobile: int = 2, seed: int = 17,
                  settle_s: float = 20.0) -> dict[str, dict]:
    """Run the hybrid scenario; capture each node's stack before and after.

    Returns ``{node_id: {"kind", "before", "after", "mecho_mode"}}``.
    """
    engine = SimEngine()
    network = Network(engine)
    network.add_fixed_node("fixed-0")
    for index in range(num_mobile):
        network.add_mobile_node(f"mobile-{index}")
    nodes = build_morpheus_group(network, publish_interval=2.0,
                                 evaluate_interval=2.0)
    captured = {node_id: {"kind": network.node(node_id).kind.value,
                          "before": list(morpheus.current_stack())}
                for node_id, morpheus in nodes.items()}
    engine.run_until(settle_s)
    for node_id, morpheus in nodes.items():
        captured[node_id]["after"] = list(morpheus.current_stack())
        mecho = morpheus.local_module.data_channel.session_named("mecho")
        captured[node_id]["mecho_mode"] = mecho.mode if mecho else None
        captured[node_id]["relay"] = mecho.relay if mecho else None
    return captured


def render(captured: dict[str, dict]) -> str:
    """ASCII rendering of the deployed stacks (cf. the paper's Figure 2)."""
    lines = ["Figure 2 — deployed protocol stacks", ""]
    lines.append("(a) initial, homogeneous configuration:")
    for node_id in sorted(captured):
        info = captured[node_id]
        stack = " / ".join(reversed(info["before"]))
        lines.append(f"  {node_id:>10} ({info['kind']:<6}): {stack}")
    lines.append("")
    lines.append("(b) after adaptation to the hybrid context:")
    for node_id in sorted(captured):
        info = captured[node_id]
        stack = " / ".join(reversed(info["after"]))
        mode = info["mecho_mode"]
        suffix = f"   [mecho/{mode}, relay={info['relay']}]" if mode else ""
        lines.append(f"  {node_id:>10} ({info['kind']:<6}): {stack}{suffix}")
    return "\n".join(lines)


def verify(captured: dict[str, dict]) -> list[str]:
    """Check the deployment against the figure; returns a list of errors."""
    errors = []
    for node_id, info in captured.items():
        if "beb" not in info["before"]:
            errors.append(f"{node_id}: initial stack is not the plain one")
        if "mecho" not in info["after"]:
            errors.append(f"{node_id}: adapted stack lacks Mecho")
        expected_mode = "wired" if info["kind"] == "fixed" else "wireless"
        if info.get("mecho_mode") != expected_mode:
            errors.append(f"{node_id}: mecho mode {info.get('mecho_mode')} "
                          f"!= {expected_mode}")
    return errors


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mobiles", type=int, default=2)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)
    captured = deploy_stacks(num_mobile=args.mobiles, seed=args.seed)
    print(render(captured))
    errors = verify(captured)
    if errors:
        raise SystemExit("\n".join(["VERIFICATION FAILED:"] + errors))
    print("\nVerification: live stacks match Figure 2.")


if __name__ == "__main__":
    main()
