"""Built-in adaptation rules: the paper's policies as declarative data.

Each rule is one of the paper's policies; a scenario's ``policy`` name
maps to one of them (``hybrid`` → ``hybrid_mecho``, ``rotating`` →
``battery_rotation``, ``loss_adaptive`` → ``loss_adaptive``).  Hysteresis
memory and the current relay choice live in ``ctx.state`` — engine-owned,
per-group — not on the rule instance, so reusing one rule (or one engine)
across groups cannot leak decisions between them.  Each declares the
attributes it ``reads``; the hybrid rule adds whatever its relay selector
reads.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.context.model import BATTERY, DEVICE_TYPE, LINK_QUALITY
from repro.core.rules.base import RuleContext, register_rule
from repro.core.rules.plan import (RELAY_SELECTORS, ReconfigurationPlan,
                                   best_battery_relay)
from repro.core.templates import (fec_data_template, mecho_data_template,
                                  plain_data_template)
from repro.kernel.errors import ConfigurationError


def _resolve_selector(selector: Union[str, Callable]) -> Callable:
    if not callable(selector):
        try:
            selector = RELAY_SELECTORS[selector]
        except KeyError:
            known = ", ".join(sorted(RELAY_SELECTORS))
            raise ConfigurationError(
                f"unknown relay selector {selector!r} ({known})") from None
    if not isinstance(getattr(selector, "reads", None), frozenset):
        raise ConfigurationError(
            f"relay selector {selector!r} does not declare the context "
            f"attributes it reads (a 'reads' frozenset)")
    return selector


@register_rule
class HybridMechoRule:
    """The paper's demonstration policy (§3.4, §4).

    *Hybrid* membership (fixed + mobile devices) → deploy Mecho: wired mode
    on fixed nodes, wireless mode with a selected fixed relay on mobile
    nodes.  *Homogeneous* membership → deploy the plain configuration.
    """

    rule_name = "hybrid_mecho"
    reads = frozenset({DEVICE_TYPE})

    def __init__(self, *, relay_selector: Union[str, Callable] = "lowest_id",
                 stack_options: Optional[dict] = None) -> None:
        self.relay_selector = _resolve_selector(relay_selector)
        self.reads = self.reads | self.relay_selector.reads
        self.stack_options = dict(stack_options or {})

    def evaluate(self, ctx: RuleContext) -> Optional[ReconfigurationPlan]:
        directory, members = ctx.directory, ctx.members
        if not members or not directory.covers(members, DEVICE_TYPE):
            return None  # distributed context not yet known: wait
        kinds = directory.device_kinds(members)
        if directory.is_hybrid(members):
            relay = self.relay_selector(directory, kinds["fixed"])
            plan = ReconfigurationPlan(name=f"hybrid:relay={relay}")
            for member in members:
                mode = "wired" if member in kinds["fixed"] else "wireless"
                plan.templates[member] = mecho_data_template(
                    members, mode=mode, relay=relay, **self.stack_options)
            return plan
        plan = ReconfigurationPlan(name="plain")
        for member in members:
            plan.templates[member] = plain_data_template(
                members, **self.stack_options)
        return plan


@register_rule
class BatteryRotationRule:
    """Energy-aware extension: rotate the relay to the fullest battery.

    For all-mobile groups (ad hoc scenario) this keeps the relay burden —
    and hence battery drain — balanced, extending the time until the first
    device dies (the network-lifetime metric of [20]).  A new plan is only
    produced when the current relay's battery trails the best candidate by
    more than ``hysteresis`` (avoiding reconfiguration thrash).  The
    current relay is remembered in ``ctx.state["relay"]``.
    """

    rule_name = "battery_rotation"
    reads = frozenset({BATTERY})

    def __init__(self, *, hysteresis: float = 0.08,
                 stack_options: Optional[dict] = None) -> None:
        self.hysteresis = float(hysteresis)
        self.stack_options = dict(stack_options or {})

    def evaluate(self, ctx: RuleContext) -> Optional[ReconfigurationPlan]:
        directory, members = ctx.directory, ctx.members
        if not members or not directory.covers(members, BATTERY):
            return None
        best = best_battery_relay(directory, members)
        current = ctx.state.get("relay")
        if current is not None and current in members:
            current_level = directory.value(current, BATTERY, 0.0)
            best_level = directory.value(best, BATTERY, 0.0)
            if best_level - current_level < self.hysteresis:
                best = current
        ctx.state["relay"] = best
        plan = ReconfigurationPlan(name=f"rotating:relay={best}")
        for member in members:
            mode = "wired" if member == best else "wireless"
            plan.templates[member] = mecho_data_template(
                members, mode=mode, relay=best, **self.stack_options)
        return plan


@register_rule
class LossAdaptiveRule:
    """Error-recovery adaptation (§2): ARQ at low loss, FEC at high loss.

    *"For small error rates it is preferable to detect and recover (using
    retransmissions) while for larger error rates it is preferable to mask
    the errors (using forward error recovery techniques)."*  The decision
    attribute is the disseminated ``link_quality`` (loss probability) of the
    worst member link; hysteresis prevents flapping around the threshold.
    The FEC on/off memory lives in ``ctx.state["fec_active"]``.
    """

    rule_name = "loss_adaptive"
    reads = frozenset({LINK_QUALITY})

    def __init__(self, *, threshold: float = 0.08, hysteresis: float = 0.02,
                 k: int = 8, m: int = 2,
                 stack_options: Optional[dict] = None) -> None:
        self.threshold = float(threshold)
        self.hysteresis = float(hysteresis)
        self.k = int(k)
        self.m = int(m)
        self.stack_options = dict(stack_options or {})

    def evaluate(self, ctx: RuleContext) -> Optional[ReconfigurationPlan]:
        directory, members = ctx.directory, ctx.members
        if not members or not directory.covers(members, LINK_QUALITY):
            return None
        worst = max(directory.value(member, LINK_QUALITY, 0.0)
                    for member in members)
        fec_active = bool(ctx.state.get("fec_active", False))
        enter = self.threshold + (0 if fec_active else self.hysteresis)
        leave = self.threshold - (0 if not fec_active else self.hysteresis)
        fec_active = worst >= (leave if fec_active else enter)
        ctx.state["fec_active"] = fec_active
        if fec_active:
            plan = ReconfigurationPlan(name=f"fec(k={self.k},m={self.m})")
            for member in members:
                plan.templates[member] = fec_data_template(
                    members, k=self.k, m=self.m, **self.stack_options)
            return plan
        plan = ReconfigurationPlan(name="plain")
        for member in members:
            plan.templates[member] = plain_data_template(
                members, **self.stack_options)
        return plan


@register_rule
class PlainRule:
    """Unconditionally prescribe the plain stack (catch-all tail rule)."""

    rule_name = "plain"
    reads: frozenset[str] = frozenset()

    def __init__(self, *, stack_options: Optional[dict] = None) -> None:
        self.stack_options = dict(stack_options or {})

    def evaluate(self, ctx: RuleContext) -> Optional[ReconfigurationPlan]:
        if not ctx.members:
            return None
        plan = ReconfigurationPlan(name="plain")
        for member in ctx.members:
            plan.templates[member] = plain_data_template(
                ctx.members, **self.stack_options)
        return plan
