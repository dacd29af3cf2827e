"""The declarative policy engine: registry, config loading, governance."""

from __future__ import annotations

import pytest

from repro.context import (BATTERY, DEVICE_TYPE, LINK_QUALITY, ContextSample,
                           TopicBus)
from repro.core.rules import (DEFAULT_RULE_SPECS, AdaptationGovernor,
                              ContextDirectory, GovernorConfig,
                              LossAdaptiveRule, PolicyEngine,
                              ReconfigurationPlan, RuleContext,
                              build_rule, compose_with_defaults,
                              engine_from_spec, governor_from_params,
                              load_policy, register_rule, resolve_rule,
                              rule_names)
from repro.core.rules.base import _RULE_REGISTRY
from repro.kernel.errors import ConfigurationError
from repro.kernel.xml_config import (PolicySpec, RuleSpec, dump_config,
                                     parse_config, parse_policy_config)


def directory_with(samples: dict[tuple[str, str], object]) -> ContextDirectory:
    bus = TopicBus()
    directory = ContextDirectory(bus)
    for (node_id, attribute), value in samples.items():
        bus.publish(f"context.{attribute}",
                    ContextSample(node_id, attribute, value, 0.0))
    return directory


def loss_directory(worst: float) -> ContextDirectory:
    return directory_with({("a", LINK_QUALITY): worst,
                           ("b", LINK_QUALITY): 0.0})


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"hybrid_mecho", "battery_rotation", "loss_adaptive",
                "plain"} <= set(rule_names())

    def test_resolve_known_rule(self):
        assert resolve_rule("loss_adaptive") is LossAdaptiveRule

    def test_unknown_rule_names_the_inventory(self):
        with pytest.raises(ConfigurationError, match="hybrid_mecho"):
            resolve_rule("no_such_rule")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            @register_rule
            class Clash:  # noqa: F811 - intentionally clashing
                rule_name = "loss_adaptive"
        assert resolve_rule("loss_adaptive") is LossAdaptiveRule

    def test_registration_requires_a_name(self):
        with pytest.raises(ConfigurationError, match="rule_name"):
            register_rule(type("Anonymous", (), {}))

    def test_build_rule_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError, match="rejected parameters"):
            build_rule("loss_adaptive", {"no_such_param": 1})


class TestXmlConfig:
    DOC = """
    <morpheus>
      <policy name="adaptive">
        <governor budget="4" flap_limit="3" window="30.0" cooldown="60.0"/>
        <rule name="loss_adaptive" threshold="0.08" hysteresis="0.02"/>
        <rule name="hybrid_mecho"/>
      </policy>
    </morpheus>
    """

    def test_parse_policy_config(self):
        policies = parse_policy_config(self.DOC)
        spec = policies["adaptive"]
        assert [rule.name for rule in spec.rules] == \
            ["loss_adaptive", "hybrid_mecho"]
        assert spec.rules[0].params == {"threshold": 0.08, "hysteresis": 0.02}
        assert spec.governor == {"budget": 4, "flap_limit": 3,
                                 "window": 30.0, "cooldown": 60.0}

    def test_round_trip_through_dump_config(self):
        original = parse_policy_config(self.DOC)
        document = dump_config({}, policies=original)
        assert parse_policy_config(document) == original
        # Policy elements are legal siblings of templates.
        assert parse_config(document) == {}

    def test_policy_spec_fragment_round_trip(self):
        spec = PolicySpec("p", (RuleSpec("plain"),), {"budget": 2})
        assert PolicySpec.from_xml(spec.to_xml()) == spec

    def test_unknown_rule_rejected_at_load_time(self):
        doc = ('<morpheus><policy name="p">'
               '<rule name="no_such_rule"/></policy></morpheus>')
        with pytest.raises(ConfigurationError, match="unknown rule"):
            load_policy(doc, "p")

    def test_missing_policy_name_rejected(self):
        with pytest.raises(ConfigurationError, match="defines no policy"):
            load_policy(self.DOC, "absent")

    def test_unknown_governor_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown governor"):
            governor_from_params({"budge": 1})

    def test_loaded_engine_decides(self):
        engine = load_policy(self.DOC, "adaptive")
        plan = engine.decide(loss_directory(0.2), ["a", "b"], now=0.0)
        assert plan.name == "fec(k=8,m=2)"


class TestHysteresisEdges:
    def test_enter_edge_is_inclusive(self):
        rule = build_rule("loss_adaptive",
                          {"threshold": 0.10, "hysteresis": 0.03})
        engine = PolicyEngine((rule,))
        # From ARQ the enter threshold is threshold + hysteresis = 0.13:
        # exactly on it switches to FEC, just below stays plain.
        assert engine.decide(loss_directory(0.1299), ["a", "b"],
                             now=0.0).name == "plain"
        assert "fec" in engine.decide(loss_directory(0.13), ["a", "b"],
                                      now=1.0).name

    def test_leave_edge_is_exclusive(self):
        rule = build_rule("loss_adaptive",
                          {"threshold": 0.10, "hysteresis": 0.03})
        engine = PolicyEngine((rule,))
        assert "fec" in engine.decide(loss_directory(0.2), ["a", "b"],
                                      now=0.0).name
        # From FEC the leave threshold is threshold - hysteresis = 0.07:
        # exactly on it stays FEC, just below drops back to ARQ.
        assert "fec" in engine.decide(loss_directory(0.07), ["a", "b"],
                                      now=1.0).name
        assert engine.decide(loss_directory(0.0699), ["a", "b"],
                             now=2.0).name == "plain"

    def test_state_is_per_group(self):
        rule = build_rule("loss_adaptive",
                          {"threshold": 0.10, "hysteresis": 0.03})
        engine = PolicyEngine((rule,))
        assert "fec" in engine.decide(loss_directory(0.2), ["a", "b"],
                                      now=0.0, group="g1").name
        # Same engine instance, other group: no FEC memory leaks over —
        # 0.11 is inside the band, so a fresh group stays plain.
        assert engine.decide(loss_directory(0.11), ["a", "b"],
                             now=0.0, group="g2").name == "plain"
        # g1 still remembers FEC at the very same reading.
        assert "fec" in engine.decide(loss_directory(0.11), ["a", "b"],
                                      now=1.0, group="g1").name


class _TogglePlan:
    """Test rule: prescribes the plan name it is told to."""

    rule_name = "_test_toggle"
    reads: frozenset[str] = frozenset()

    def __init__(self, holder: dict) -> None:
        self.holder = holder

    def evaluate(self, ctx: RuleContext):
        return ReconfigurationPlan(name=self.holder["name"])


class TestGovernor:
    def make_engine(self, holder, **config):
        governor = AdaptationGovernor(GovernorConfig(**config))
        return PolicyEngine((_TogglePlan(holder),), governor=governor)

    def test_budget_exhaustion_freezes_changes(self):
        holder = {"name": "p0"}
        engine = self.make_engine(holder, budget=2, window=100.0,
                                  cooldown=50.0)
        empty = directory_with({})
        assert engine.decide(empty, [], now=0.0).name == "p0"
        holder["name"] = "p1"
        assert engine.decide(empty, [], now=1.0).name == "p1"
        holder["name"] = "p2"  # third change in the window: over budget
        assert engine.decide(empty, [], now=2.0) is None
        assert engine.governor.rejected == 1
        # The unchanged current plan is always admissible.
        holder["name"] = "p1"
        assert engine.decide(empty, [], now=3.0).name == "p1"

    def test_budget_cooldown_expiry_readmits(self):
        holder = {"name": "p0"}
        engine = self.make_engine(holder, budget=1, window=10.0,
                                  cooldown=20.0)
        empty = directory_with({})
        assert engine.decide(empty, [], now=0.0).name == "p0"
        holder["name"] = "p1"
        assert engine.decide(empty, [], now=1.0) is None  # frozen until 21
        assert engine.decide(empty, [], now=20.9) is None
        assert engine.decide(empty, [], now=21.1).name == "p1"

    def test_flap_damping_freezes_oscillation(self):
        holder = {"name": "p0"}
        engine = self.make_engine(holder, flap_limit=2, window=100.0,
                                  cooldown=50.0)
        empty = directory_with({})
        names = []
        for tick, name in enumerate(("p0", "p1", "p0", "p1", "p1")):
            holder["name"] = name
            plan = engine.decide(empty, [], now=float(tick))
            names.append(plan.name if plan else None)
        # Two flips tolerated, the third freezes the decision.
        assert names == ["p0", "p1", "p0", None, None]

    def test_governor_state_is_per_group(self):
        holder = {"name": "p0"}
        engine = self.make_engine(holder, budget=1, window=100.0,
                                  cooldown=100.0)
        empty = directory_with({})
        assert engine.decide(empty, [], now=0.0, group="g1").name == "p0"
        holder["name"] = "p1"
        assert engine.decide(empty, [], now=1.0, group="g1") is None
        # A different group has its own untouched budget.
        assert engine.decide(empty, [], now=1.0, group="g2").name == "p1"


class TestComposition:
    def test_user_rules_precede_defaults(self):
        engine = compose_with_defaults(
            [RuleSpec("loss_adaptive", {"threshold": 0.05})])
        assert [type(rule).rule_name for rule in engine.rules] == \
            ["loss_adaptive", "hybrid_mecho"]

    def test_defaults_are_the_paper_policy(self):
        assert [spec.name for spec in DEFAULT_RULE_SPECS] == ["hybrid_mecho"]
        engine = compose_with_defaults([])
        directory = directory_with({
            ("f", DEVICE_TYPE): "fixed", ("m", DEVICE_TYPE): "mobile",
            ("f", BATTERY): 1.0, ("m", BATTERY): 0.5})
        plan = engine.decide(directory, ["f", "m"], now=0.0)
        assert plan.name == "hybrid:relay=f"

    def test_ready_rule_objects_mix_with_specs(self):
        holder = {"name": "forced"}
        engine = compose_with_defaults([_TogglePlan(holder)])
        assert engine.decide(directory_with({}), [], now=0.0).name == "forced"

    def test_engine_from_spec_resolves_eagerly(self):
        spec = PolicySpec("p", (RuleSpec("typo_rule"),), {})
        with pytest.raises(ConfigurationError, match="unknown rule"):
            engine_from_spec(spec)


@pytest.fixture(autouse=True)
def _registry_guard():
    """No test may leave a stray registration behind."""
    before = dict(_RULE_REGISTRY)
    yield
    _RULE_REGISTRY.clear()
    _RULE_REGISTRY.update(before)
