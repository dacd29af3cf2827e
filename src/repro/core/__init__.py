"""Core: control and reconfiguration (paper §3.3) plus the Morpheus facade.

The control component (a layer on the shared control channel) monitors the
distributed context and coordinates reconfiguration; local modules deploy
new XML-described stacks after driving the data channel quiescent through a
view-synchronous flush.
"""

from repro.core.core_layer import CoreLayer, CoreSession
from repro.core.local_module import LocalModule
from repro.core.morpheus import (MorpheusNode, PlainNode,
                                 build_morpheus_group, build_plain_group)
from repro.core.rules import (AdaptationGovernor, GovernorConfig,
                              PolicyEngine, Rule, RuleContext, build_rule,
                              compose_with_defaults, engine_from_spec,
                              load_policy, register_rule, rule_names)
from repro.core.rules.plan import (ContextDirectory, Policy,
                                   ReconfigurationPlan, StaticPolicy,
                                   best_battery_relay, lowest_id_relay)
from repro.core.templates import (APP_LABEL, COCADITEM_LABEL, CORE_LABEL,
                                  TRANSPORT_LABEL, VIEWSYNC_LABEL,
                                  control_template, fec_data_template,
                                  mecho_data_template, patch_for_view,
                                  plain_data_template)

__all__ = [
    "CoreLayer", "CoreSession", "LocalModule",
    "MorpheusNode", "PlainNode", "build_morpheus_group", "build_plain_group",
    "ContextDirectory", "Policy", "ReconfigurationPlan", "StaticPolicy",
    "best_battery_relay", "lowest_id_relay",
    "AdaptationGovernor", "GovernorConfig", "PolicyEngine", "Rule",
    "RuleContext", "build_rule", "compose_with_defaults",
    "engine_from_spec", "load_policy", "register_rule", "rule_names",
    "APP_LABEL", "COCADITEM_LABEL", "CORE_LABEL", "TRANSPORT_LABEL",
    "VIEWSYNC_LABEL", "control_template", "fec_data_template",
    "mecho_data_template", "patch_for_view", "plain_data_template",
]
