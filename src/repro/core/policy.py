"""Reconfiguration policies: distributed context → stack configuration.

The control component's job (paper §3.3) is *"to evaluate context
information in order to select the more adequate configuration"*, applying
**global** optimization policies — the paper's argument for keeping
adaptation logic out of the protocols themselves (§2).

The machinery lives in :mod:`repro.core.rules`: a policy is an ordered
rule list evaluated by a :class:`~repro.core.rules.engine.PolicyEngine`,
with hysteresis state owned by the engine per group and an optional
:class:`~repro.core.rules.governor.AdaptationGovernor` rate-limiting
reconfiguration.  The paper's policies are the registered rules
``hybrid_mecho``, ``battery_rotation`` and ``loss_adaptive``; this module
keeps the plan vocabulary and :class:`StaticPolicy`, the one policy that
is not a rule list.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.rules.plan import (ContextDirectory, Policy,
                                   ReconfigurationPlan, best_battery_relay,
                                   lowest_id_relay)

__all__ = [
    "ContextDirectory", "ReconfigurationPlan", "Policy",
    "lowest_id_relay", "best_battery_relay", "StaticPolicy",
]


class StaticPolicy:
    """Always prescribes one fixed plan (tests, manual control)."""

    reads: frozenset[str] = frozenset()

    def __init__(self, plan: ReconfigurationPlan) -> None:
        self.plan = plan

    def decide(self, directory: ContextDirectory,
               members: Sequence[str],
               now: Optional[float] = None,
               group: Optional[str] = None) -> Optional[ReconfigurationPlan]:
        return self.plan
