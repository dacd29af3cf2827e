"""Figure 2 — deployment of the two stack configurations.

Benchmarks the full pipeline behind the figure: boot a hybrid group on the
plain stack, let Cocaditem/Core adapt it, and verify the live stacks match
the diagram — Mecho/Wired on the fixed device, Mecho/Wireless on mobiles.
"""

from __future__ import annotations

from repro.experiments.figure2_stacks import deploy_stacks, verify


def test_figure2_deploy_and_verify(benchmark):
    captured = benchmark.pedantic(
        lambda: deploy_stacks(num_mobile=2), rounds=1, iterations=1)
    assert verify(captured) == []


def test_figure2_homogeneous_before_adaptation():
    captured = deploy_stacks(num_mobile=2)
    for info in captured.values():
        assert info["before"] == [
            "sim_transport", "beb", "reliable", "heartbeat", "membership",
            "view_sync", "chat_app"]


def test_figure2_hybrid_after_adaptation():
    captured = deploy_stacks(num_mobile=2)
    for info in captured.values():
        assert info["after"] == [
            "sim_transport", "mecho", "reliable", "heartbeat", "membership",
            "view_sync", "chat_app"]
        assert info["relay"] == "fixed-0"
