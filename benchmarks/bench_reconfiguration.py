"""Ablation A1 — reconfiguration cost under a live workload.

Wraps :mod:`repro.experiments.reconfiguration`.  Shape assertions: the
switch completes well under a second of virtual time, costs a linearly
growing number of coordination messages, interrupts delivery for no longer
than a couple of workload intervals, and loses nothing.
"""

from __future__ import annotations

import pytest

from repro.experiments.reconfiguration import run_reconfiguration

GROUP_SIZES = (2, 3, 6, 9)


@pytest.mark.parametrize("num_nodes", GROUP_SIZES)
def test_reconfiguration_cost(benchmark, num_nodes):
    result = benchmark.pedantic(
        lambda: run_reconfiguration(num_nodes),
        rounds=1, iterations=1)
    assert result.messages_lost == 0
    # The hold flush releases on install acks, so the switch costs a few
    # link delays on top of the trigger; a lost ack falls back to the
    # announcer's retry ticks (0.5 s each with default parameters).
    assert result.latency_s < 2.0
    assert result.longest_gap_s < 2.0
    benchmark.extra_info["latency_s"] = result.latency_s
    benchmark.extra_info["switch_messages"] = result.switch_messages


def test_switch_message_cost_grows_linearly():
    small = run_reconfiguration(3)
    large = run_reconfiguration(9)
    # 3x the group => roughly 3x the coordination messages (±50%).
    ratio = large.switch_messages / small.switch_messages
    assert 1.5 < ratio < 4.5
