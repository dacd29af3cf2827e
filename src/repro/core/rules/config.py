"""Build policy engines from declarative specs (XML or literal data).

The kernel's :class:`~repro.kernel.xml_config.PolicySpec` is pure data;
this module gives it meaning: rule names resolve against the runtime
registry (unknown names raise :class:`ConfigurationError` at load time,
not mid-run), governor attributes become a
:class:`~repro.core.rules.governor.GovernorConfig`, and user rules
compose *additively* over the built-in defaults — a user policy only
needs to state what it does differently, and the paper's hybrid rule
remains the safety net that always produces a deployable stack.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.core.rules.base import Rule, build_rule
from repro.core.rules.engine import PolicyEngine
from repro.core.rules.governor import AdaptationGovernor, GovernorConfig
from repro.kernel.errors import ConfigurationError
from repro.kernel.xml_config import PolicySpec, RuleSpec, parse_policy_config

#: The built-in default tail: the paper's demonstration policy.  User
#: rules are evaluated first; whatever they abstain from falls through
#: to this.
DEFAULT_RULE_SPECS: tuple[RuleSpec, ...] = (RuleSpec("hybrid_mecho"),)

_GOVERNOR_KEYS = frozenset(("budget", "flap_limit", "window", "cooldown"))


def governor_from_params(params: dict) -> Optional[AdaptationGovernor]:
    """Build a governor from coerced ``<governor>`` attributes."""
    if not params:
        return None
    unknown = set(params) - _GOVERNOR_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown governor parameters {sorted(unknown)} "
            f"(accepted: {sorted(_GOVERNOR_KEYS)})")
    config = GovernorConfig(
        budget=int(params.get("budget", 0)),
        flap_limit=int(params.get("flap_limit", 0)),
        window=float(params.get("window", 30.0)),
        cooldown=float(params.get("cooldown", 60.0)))
    return AdaptationGovernor(config)


def engine_from_spec(spec: PolicySpec,
                     stack_options: Optional[dict] = None) -> PolicyEngine:
    """Instantiate the engine a ``<policy>`` element describes.

    Every rule name is resolved eagerly so a typo fails at configuration
    load, with the registry's inventory in the message.
    """
    rules = tuple(build_rule(rule.name, rule.params, stack_options)
                  for rule in spec.rules)
    return PolicyEngine(rules, governor=governor_from_params(spec.governor))


def compose_with_defaults(user_rules: Iterable[Union[RuleSpec, Rule]],
                          stack_options: Optional[dict] = None,
                          governor: Optional[AdaptationGovernor] = None
                          ) -> PolicyEngine:
    """User rules first, built-in defaults as the fall-through tail.

    Accepts ready rule objects and bare :class:`RuleSpec` data mixed
    freely, so a caller can combine a hand-written rule with declarative
    ones.
    """
    rules: list[Rule] = []
    for item in user_rules:
        if isinstance(item, RuleSpec):
            rules.append(build_rule(item.name, item.params, stack_options))
        else:
            rules.append(item)
    for spec in DEFAULT_RULE_SPECS:
        rules.append(build_rule(spec.name, spec.params, stack_options))
    return PolicyEngine(tuple(rules), governor=governor)


def load_policy(text: str, name: str,
                stack_options: Optional[dict] = None) -> PolicyEngine:
    """Parse a ``<morpheus>`` document and build its policy ``name``."""
    policies = parse_policy_config(text)
    if name not in policies:
        known = ", ".join(sorted(policies)) or "<none>"
        raise ConfigurationError(
            f"document defines no policy {name!r} (found: {known})")
    return engine_from_spec(policies[name], stack_options)
