"""The policy engine: ordered rules, per-group state, governed output.

A :class:`PolicyEngine` satisfies the ``Policy`` protocol: ``decide``
takes the directory and members, plus ``now`` (simulated time, for
governor windows) and ``group`` (so one engine instance can serve many
groups without decisions bleeding between them), both of which the core
layer always passes.  Rules are evaluated in order and the first plan
wins; the governor then decides whether acting on that plan is
admissible right now.  The engine ``reads`` the union of what its rules
declare they read.

Decision state discipline: every rule gets a private per-(group, rule)
dict through :class:`~repro.core.rules.base.RuleContext`, created lazily
and owned here, so reusing one rule (or one engine) across groups
cannot leak hysteresis between them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.rules.base import Rule, RuleContext, rule_reads
from repro.core.rules.governor import AdaptationGovernor, GovernorState
from repro.core.rules.plan import (ContextDirectory, Policy,
                                   ReconfigurationPlan)

_DEFAULT_GROUP = "default"


class _GroupState:
    """Everything the engine remembers about one group."""

    __slots__ = ("rule_state", "governor", "ticks")

    def __init__(self, governor: Optional[GovernorState]) -> None:
        self.rule_state: dict[int, dict] = {}
        self.governor = governor
        #: Fallback clock: advances by one per ungoverned-clock decide().
        self.ticks = 0


class PolicyEngine:
    """First-match rule evaluation with engine-owned decision state."""

    def __init__(self, rules: Sequence[Rule],
                 governor: Optional[AdaptationGovernor] = None) -> None:
        self.rules = tuple(rules)
        self.reads: frozenset[str] = frozenset().union(
            *(rule_reads(rule) for rule in self.rules))
        self.governor = governor
        self._groups: dict[str, _GroupState] = {}

    # -- group state --------------------------------------------------------

    def _group_state(self, group: str) -> _GroupState:
        state = self._groups.get(group)
        if state is None:
            governor = self.governor.fresh_state() \
                if self.governor is not None else None
            state = self._groups[group] = _GroupState(governor)
        return state

    # -- decision -----------------------------------------------------------

    def decide(self, directory: ContextDirectory, members: Sequence[str],
               now: Optional[float] = None,
               group: Optional[str] = None) -> Optional[ReconfigurationPlan]:
        """Evaluate the rules; return the admitted plan or ``None``.

        Without a caller clock the engine counts ``decide`` calls, so
        governor windows degrade to evaluation ticks — deterministic
        either way.
        """
        state = self._group_state(group or _DEFAULT_GROUP)
        if now is None:
            state.ticks += 1
            now = float(state.ticks)
        plan: Optional[ReconfigurationPlan] = None
        for index, rule in enumerate(self.rules):
            ctx = RuleContext(
                directory, members,
                state=state.rule_state.setdefault(index, {}),
                group=group or _DEFAULT_GROUP, now=now)
            plan = rule.evaluate(ctx)
            if plan is not None:
                break
        if plan is None:
            return None
        if state.governor is not None and self.governor is not None and \
                not self.governor.admit(state.governor, plan.name, now):
            return None
        return plan

