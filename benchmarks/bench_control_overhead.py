"""Ablation A6 — the adaptive version's control-traffic breakdown.

The paper's footnote 1 promises the adaptive version adds only *"a small
increase in the traffic due to the need of exchanging more control
information"*.  Shape assertions: the mobile node's control share stays a
small fraction of its total, and the adaptive total still beats the
non-adaptive total by a wide margin at n = 6.
"""

from __future__ import annotations

from repro.experiments.control_overhead import (control_fraction,
                                                run_breakdown)

MESSAGES = 800


def test_breakdown(benchmark):
    adaptive, baseline = benchmark.pedantic(
        lambda: run_breakdown(num_nodes=6, messages=MESSAGES),
        rounds=1, iterations=1)
    # Data dominates the adaptive mobile's traffic...
    assert control_fraction(adaptive) < 0.35
    # ...and the added control does not erase the Mecho gain.
    assert adaptive.sent_total < 0.5 * baseline.sent_total
    # The baseline sends almost nothing but data (heartbeats only).
    assert baseline.sent_by_event.get("ContextMessage", 0) == 0
    assert baseline.sent_by_event.get("CoreMessage", 0) == 0
    assert adaptive.sent_by_event.get("ContextMessage", 0) > 0
    benchmark.extra_info["adaptive_control"] = adaptive.sent_control
    benchmark.extra_info["baseline_control"] = baseline.sent_control
