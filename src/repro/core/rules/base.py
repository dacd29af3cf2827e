"""Rule protocol, evaluation context and the runtime rule registry.

The paper keeps adaptation logic in a *global policy* outside the
protocols (§2, §3.3).  This package makes that policy layer declarative:
a policy is an ordered list of **rules**, each a small registered class
whose parameters are plain data (loadable from the same XML documents that
describe channel stacks — see :mod:`repro.kernel.xml_config`).  The
engine (:mod:`repro.core.rules.engine`) evaluates rules first-match and
owns all mutable decision state, keyed per group; the governor
(:mod:`repro.core.rules.governor`) rate-limits what the winning rule may
actually do to the running system.

Registering a rule::

    @register_rule
    class MyRule:
        rule_name = "my_rule"
        reads = frozenset({"link_quality"})

        def __init__(self, *, threshold: float = 0.5,
                     stack_options=None) -> None: ...

        def evaluate(self, ctx: RuleContext): ...

Rule constructors accept their declarative parameters as keyword
arguments plus the shared ``stack_options`` mapping (forwarded to the
channel-template builders), and must be pure data holders: any state a
rule needs across evaluations lives in ``ctx.state``, which the engine
scopes per (group, rule) — never on ``self``.  That discipline is what
lets one rule instance serve many groups without decisions leaking
between them.

Every rule declares ``reads``: the context attributes its evaluation
looks at.  The control component subscribes to exactly those topics and
evaluates when a sample changes one of them (the paper's Core
*"subscribe[s] the topics required for [its] operation"*, §3.2), so a
rule that reads an undeclared attribute would never be re-evaluated when
it changes.  A rule class without the declaration is rejected when it is
registered, a rule object without it when an engine is built.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, Sequence, runtime_checkable

from repro.kernel.errors import ConfigurationError


class RuleContext:
    """Everything one rule evaluation may look at.

    ``state`` is the rule's private mutable dict, owned by the engine and
    scoped to (group, rule position): hysteresis memory, the currently
    chosen relay, and so on belong here.
    """

    __slots__ = ("directory", "members", "state", "group", "now")

    def __init__(self, directory: Any, members: Sequence[str],
                 state: dict, group: str, now: float) -> None:
        self.directory = directory
        self.members = tuple(members)
        self.state = state
        self.group = group
        self.now = now


@runtime_checkable
class Rule(Protocol):
    """One adaptation rule: context in, plan (or abstention) out."""

    rule_name: str
    #: Context attributes ``evaluate`` reads (see :func:`rule_reads`).
    reads: frozenset[str]

    def evaluate(self, ctx: RuleContext):
        """Return a ``ReconfigurationPlan`` or ``None`` to fall through."""
        ...  # pragma: no cover - protocol declaration


_RULE_REGISTRY: dict[str, type] = {}


def rule_reads(rule: Any) -> frozenset[str]:
    """The context attributes ``rule`` (a class or an instance) declares
    it reads; a missing or malformed declaration raises, naming the rule."""
    reads = getattr(rule, "reads", None)
    if not isinstance(reads, frozenset) or \
            not all(isinstance(name, str) for name in reads):
        name = getattr(rule, "rule_name", None) or \
            getattr(rule, "__name__", type(rule).__name__)
        raise ConfigurationError(
            f"rule {name!r} does not declare the context attributes it "
            f"reads (a 'reads' frozenset of attribute names)")
    return reads


def register_rule(cls: type) -> type:
    """Class decorator: publish ``cls`` under its ``rule_name``.

    Re-registering a name is an error — a typo'd duplicate would silently
    shadow a built-in and change every config that referenced it — and so
    is a class that does not declare what it ``reads``.
    """
    name = getattr(cls, "rule_name", None)
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"rule class {cls.__name__} lacks a 'rule_name' string")
    if name in _RULE_REGISTRY:
        raise ConfigurationError(f"rule name {name!r} already registered "
                                 f"(by {_RULE_REGISTRY[name].__name__})")
    rule_reads(cls)
    _RULE_REGISTRY[name] = cls
    return cls


def resolve_rule(name: str) -> type:
    """Look up a registered rule class; unknown names raise."""
    try:
        return _RULE_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_RULE_REGISTRY)) or "<none>"
        raise ConfigurationError(
            f"unknown rule {name!r} (registered: {known})") from None


def rule_names() -> tuple[str, ...]:
    """All registered rule names, sorted (stable fuzzing surface)."""
    return tuple(sorted(_RULE_REGISTRY))


def build_rule(name: str, params: Optional[dict] = None,
               stack_options: Optional[dict] = None) -> Rule:
    """Instantiate a registered rule from declarative parameters."""
    cls = resolve_rule(name)
    try:
        return cls(stack_options=stack_options, **dict(params or {}))
    except TypeError as exc:
        raise ConfigurationError(
            f"rule {name!r} rejected parameters "
            f"{sorted(dict(params or {}))}: {exc}") from None
