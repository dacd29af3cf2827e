"""Declarative policy engine: rules, registry, governor (paper §3.3).

Public surface of the rule system.  See :mod:`repro.core.rules.base` for
the rule protocol and registration, :mod:`repro.core.rules.builtin` for
the rules the paper's policies compile to, and
:mod:`repro.core.rules.config` for loading policies from the same XML
documents that describe channel stacks.
"""

from repro.core.rules.base import (Rule, RuleContext, build_rule,
                                   register_rule, resolve_rule, rule_names)
from repro.core.rules.builtin import (BatteryRotationRule, HybridMechoRule,
                                      LossAdaptiveRule, PlainRule)
from repro.core.rules.config import (DEFAULT_RULE_SPECS,
                                     compose_with_defaults, engine_from_spec,
                                     governor_from_params, load_policy)
from repro.core.rules.engine import PolicyEngine
from repro.core.rules.governor import (AdaptationGovernor, GovernorConfig,
                                       GovernorState)
from repro.core.rules.plan import (RELAY_SELECTORS, ContextDirectory, Policy,
                                   ReconfigurationPlan, best_battery_relay,
                                   lowest_id_relay)

__all__ = [
    "Rule", "RuleContext", "register_rule", "resolve_rule", "rule_names",
    "build_rule",
    "BatteryRotationRule", "HybridMechoRule", "LossAdaptiveRule", "PlainRule",
    "DEFAULT_RULE_SPECS", "compose_with_defaults", "engine_from_spec",
    "governor_from_params", "load_policy",
    "PolicyEngine",
    "AdaptationGovernor", "GovernorConfig", "GovernorState",
    "ContextDirectory", "Policy", "ReconfigurationPlan", "RELAY_SELECTORS",
    "best_battery_relay", "lowest_id_relay",
]
