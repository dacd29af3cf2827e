"""Reconfiguration policies: context in, plans out.

Each of the paper's policies is one registered rule run by a
:class:`PolicyEngine`; :func:`engine` builds that one-rule engine by name.
"""

from __future__ import annotations

import pytest

from repro.context import (BATTERY, DEVICE_TYPE, LINK_QUALITY, ContextSample,
                           TopicBus)
from repro.core import (ContextDirectory, PolicyEngine, ReconfigurationPlan,
                        StaticPolicy, best_battery_relay, build_rule,
                        lowest_id_relay)


def engine(*rules, **params) -> PolicyEngine:
    """A first-match engine over the named rules (``params`` go to a
    single rule)."""
    return PolicyEngine(tuple(build_rule(name, params) for name in rules))


class _ForcedRule:
    """Test rule: always prescribes the plan named ``forced``."""

    rule_name = "forced"
    reads: frozenset[str] = frozenset()

    def evaluate(self, ctx):
        return ReconfigurationPlan(name="forced")


def directory_with(samples: dict[tuple[str, str], object]) -> ContextDirectory:
    bus = TopicBus()
    directory = ContextDirectory(bus)
    for (node_id, attribute), value in samples.items():
        bus.publish(f"context.{attribute}",
                    ContextSample(node_id, attribute, value, 0.0))
    return directory


def hybrid_directory():
    return directory_with({
        ("f0", DEVICE_TYPE): "fixed",
        ("f1", DEVICE_TYPE): "fixed",
        ("m0", DEVICE_TYPE): "mobile",
        ("f0", BATTERY): 1.0,
        ("f1", BATTERY): 0.7,
        ("m0", BATTERY): 0.5,
    })


class TestHybridMechoRule:
    def test_undecidable_without_full_coverage(self):
        directory = directory_with({("a", DEVICE_TYPE): "fixed"})
        policy = engine("hybrid_mecho")
        assert policy.decide(directory, ["a", "b"]) is None

    def test_hybrid_produces_mecho_plan(self):
        policy = engine("hybrid_mecho")
        plan = policy.decide(hybrid_directory(), ["f0", "f1", "m0"])
        assert plan.name == "hybrid:relay=f0"
        modes = {node: next(s for s in plan.templates[node].specs
                            if s.name == "mecho").params["mode"]
                 for node in ("f0", "f1", "m0")}
        assert modes == {"f0": "wired", "f1": "wired", "m0": "wireless"}

    def test_homogeneous_produces_plain_plan(self):
        directory = directory_with({
            ("a", DEVICE_TYPE): "fixed", ("b", DEVICE_TYPE): "fixed"})
        plan = engine("hybrid_mecho").decide(directory, ["a", "b"])
        assert plan.name == "plain"
        assert all("beb" in [s.name for s in template.specs]
                   for template in plan.templates.values())

    def test_battery_aware_relay_selection(self):
        policy = engine("hybrid_mecho", relay_selector=best_battery_relay)
        plan = policy.decide(hybrid_directory(), ["f0", "f1", "m0"])
        assert plan.name == "hybrid:relay=f0"  # f0 has the fullest battery

    def test_relay_selection_deterministic_tie_break(self):
        directory = directory_with({
            ("x", DEVICE_TYPE): "fixed", ("y", DEVICE_TYPE): "fixed",
            ("m", DEVICE_TYPE): "mobile",
            ("x", BATTERY): 0.8, ("y", BATTERY): 0.8,
        })
        assert best_battery_relay(directory, ["y", "x"]) == "x"
        assert lowest_id_relay(directory, ["y", "x"]) == "x"


class TestRotationPolicy:
    def test_relay_moves_to_fullest_battery(self):
        directory = directory_with({
            ("a", BATTERY): 0.2, ("b", BATTERY): 0.9, ("c", BATTERY): 0.5})
        policy = engine("battery_rotation", hysteresis=0.05)
        plan = policy.decide(directory, ["a", "b", "c"])
        assert plan.name == "rotating:relay=b"

    def test_hysteresis_prevents_thrash(self):
        policy = engine("battery_rotation", hysteresis=0.2)
        first = policy.decide(directory_with({
            ("a", BATTERY): 0.9, ("b", BATTERY): 0.8}), ["a", "b"])
        assert first.name == "rotating:relay=a"
        # b is now marginally better; within hysteresis → stay on a.
        second = policy.decide(directory_with({
            ("a", BATTERY): 0.7, ("b", BATTERY): 0.8}), ["a", "b"])
        assert second.name == "rotating:relay=a"
        # b is decisively better → rotate.
        third = policy.decide(directory_with({
            ("a", BATTERY): 0.3, ("b", BATTERY): 0.8}), ["a", "b"])
        assert third.name == "rotating:relay=b"

    def test_waits_for_battery_coverage(self):
        directory = directory_with({("a", BATTERY): 0.5})
        policy = engine("battery_rotation")
        assert policy.decide(directory, ["a", "b"]) is None


class TestLossAdaptiveRule:
    def test_low_loss_prescribes_arq(self):
        directory = directory_with({
            ("a", LINK_QUALITY): 0.01, ("b", LINK_QUALITY): 0.0})
        plan = engine("loss_adaptive", threshold=0.08) \
            .decide(directory, ["a", "b"])
        assert plan.name == "plain"

    def test_high_loss_prescribes_fec(self):
        directory = directory_with({
            ("a", LINK_QUALITY): 0.2, ("b", LINK_QUALITY): 0.0})
        plan = engine("loss_adaptive", threshold=0.08, k=4, m=2) \
            .decide(directory, ["a", "b"])
        assert plan.name == "fec(k=4,m=2)"
        for template in plan.templates.values():
            assert "fec" in [s.name for s in template.specs]

    def test_hysteresis_band(self):
        policy = engine("loss_adaptive", threshold=0.10, hysteresis=0.03)
        in_band = directory_with({("a", LINK_QUALITY): 0.11})
        # From ARQ: entering needs >= 0.13 → stays plain at 0.11.
        assert policy.decide(in_band, ["a"]).name == "plain"
        high = directory_with({("a", LINK_QUALITY): 0.2})
        assert "fec" in policy.decide(high, ["a"]).name
        # From FEC: leaving needs < 0.07 → stays FEC at 0.11.
        assert "fec" in policy.decide(in_band, ["a"]).name


class TestComposition:
    def test_composite_first_match_wins(self):
        composite = PolicyEngine((build_rule("hybrid_mecho"), _ForcedRule()))
        empty = directory_with({})
        # Hybrid rule abstains (no coverage) → falls through to forced.
        assert composite.decide(empty, ["a"]).name == "forced"

    def test_composite_returns_none_when_all_abstain(self):
        composite = engine("hybrid_mecho", "battery_rotation")
        assert composite.decide(directory_with({}), ["a"]) is None

    def test_static_policy_always_prescribes(self):
        plan = ReconfigurationPlan(name="pinned")
        assert StaticPolicy(plan).decide(directory_with({}), []) is plan
