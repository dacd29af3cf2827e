"""Ablation A4 — network lifetime with battery-aware relay rotation.

Shape assertions (heterogeneous batteries, weakest node lowest-id):
rotating the relay by battery level outlives both the static relay pinned
on the weak node and the plain fan-out configuration.
"""

from __future__ import annotations

import pytest

from repro.experiments.energy_lifetime import run_lifetime

PARAMS = dict(num_nodes=4, capacity_mj=2500.0, horizon_s=800.0)


@pytest.mark.parametrize("strategy", ("plain", "static", "rotating"))
def test_lifetime_cell(benchmark, strategy):
    result = benchmark.pedantic(
        lambda: run_lifetime(strategy, **PARAMS), rounds=1, iterations=1)
    assert result.lifetime_s > 0
    benchmark.extra_info["lifetime_s"] = result.lifetime_s
    benchmark.extra_info["delivered"] = result.delivered_in_lifetime


def test_rotation_extends_lifetime():
    plain = run_lifetime("plain", **PARAMS)
    static = run_lifetime("static", **PARAMS)
    rotating = run_lifetime("rotating", **PARAMS)
    assert rotating.lifetime_s > plain.lifetime_s > static.lifetime_s
    assert rotating.relay_switches >= 2
    assert rotating.delivered_in_lifetime > plain.delivered_in_lifetime
