"""The Core control component (paper §3.3), as a control-channel layer.

The control component monitors the distributed context (through the
directory fed by Cocaditem) and coordinates reconfiguration: *"The current
version of the control component is based on a coordinator,
deterministically elected in run-time among all the members of the control
group."*  Coordination protocol:

* the coordinator evaluates its policy **when something the policy reads
  changes** (a *trigger*): it subscribes to the context topics of the
  attributes its rules declare they read, and a sample whose value
  differs from the last one seen for that (node, attribute) arms one
  zero-delay evaluation for the instant — a snapshot of five attributes
  costs one ``decide``.  A control view change, a stranded
  ``config_query`` (below) and a trigger left over when a reconfiguration
  completes arm it too.  When the adequate configuration differs from the
  deployed one it assigns a config id and **unicasts to each participant
  the configuration that should be deployed at that node** (an XML channel
  description, as in the paper);
* each member hands the configuration to its local module (trigger view
  change → quiesce → redeploy) and answers ``reconfig_done`` to the
  configuration's issuer;
* the periodic ``evaluate_interval`` tick is the safety net: it re-sends
  the configuration to unresponsive members (idempotent, tagged with
  config id and lineage) and re-evaluates only while a trigger is still
  outstanding (the policy could not decide, or its governor held the
  change back); the configuration is deployed when every control-group
  member acked;
* a member whose data stack another member's flush held before its own
  configuration arrived asks for it (``config_query``): the coordinator
  re-sends it, or, with no reconfiguration in flight, redeploys.

Only the coordinator ever calls ``decide``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.context.model import ContextSample, topic_for
from repro.context.pubsub import TopicBus
from repro.core.local_module import LocalModule
from repro.core.rules.plan import (ContextDirectory, Policy,
                                   ReconfigurationPlan)
from repro.kernel.events import Direction, Event, TimerEvent
from repro.kernel.layer import Layer
from repro.kernel.registry import register_layer
from repro.kernel.xml_config import ChannelTemplate
from repro.protocols.base import GroupSession
from repro.protocols.events import CoreMessage, ViewEvent

_EVALUATE_TIMER = "core-evaluate"
_TRIGGER_TIMER = "core-trigger"
_UNSEEN = object()


class CoreSession(GroupSession):
    """Per-node Core instance (control side + member side)."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.evaluate_interval: float = float(
            layer.params.get("evaluate_interval", 5.0))
        self.local_module: Optional[LocalModule] = None
        self.policy: Optional[Policy] = None
        self.directory: Optional[ContextDirectory] = None
        #: Configuration the coordinator believes is deployed everywhere.
        self.deployed_name: str = "plain"
        #: Membership the deployed data templates were built for (the
        #: coordinator redeploys when the control group *grows* beyond it —
        #: that is how joiners get folded into the data channel; shrinking
        #: is handled by the data channel's own failure detector).
        self.deployed_members: Optional[tuple[str, ...]] = None
        #: Invoked (name) when a reconfiguration completes group-wide.
        self.on_reconfigured: Optional[Callable[[str], None]] = None

        # Coordinator-side state.
        self._config_id = 0
        self._active_plan: Optional[ReconfigurationPlan] = None
        self._active_members: Optional[tuple[str, ...]] = None
        self._active_lineage: Optional[tuple] = None
        self._acks: set[str] = set()
        #: A member reported its data stack held for a configuration this
        #: coordinator has not issued: the evaluation this triggers
        #: redeploys even if the plan is the deployed one.
        self._stranded = False
        #: A trigger is outstanding: the group may need a decision that
        #: has not been made (or that the policy could not make yet).
        self._dirty = False
        #: A zero-delay evaluation is armed for the current instant.
        self._armed = False
        #: Last value seen per (node, attribute) the policy reads.
        self._seen: dict[tuple[str, str], Any] = {}
        #: Completed group-wide reconfigurations (diagnostics/benches).
        self.reconfigurations_completed = 0
        #: Virtual timestamps of the last reconfiguration (benches).
        self.last_reconfig_started_at: Optional[float] = None
        self.last_reconfig_completed_at: Optional[float] = None

        # Member-side state.
        self._applying_id: Optional[int] = None
        self._applying_name: Optional[str] = None
        self._applying_lineage: Optional[tuple] = None
        self._last_applied_id = 0
        #: Lineage of the configuration this node last deployed.
        self._applied_lineage: Optional[tuple] = None

    def attach(self, local_module: LocalModule, policy: Policy,
               directory: ContextDirectory, bus: TopicBus,
               initial_config_name: str = "plain",
               initial_members: Optional[Sequence[str]] = None) -> None:
        """Wire the session to its local module, policy, directory and the
        node's context bus (where it subscribes to what the policy reads).

        ``initial_members`` is the membership the initial data template was
        built for; when omitted, membership changes alone never force a
        redeployment (the pre-dynamic-topology behaviour).
        """
        self.local_module = local_module
        local_module.request_config = self._request_config
        self.policy = policy
        self.directory = directory
        self.deployed_name = initial_config_name
        self.deployed_members = tuple(sorted(initial_members)) \
            if initial_members is not None else None
        for attribute in sorted(policy.reads):
            bus.subscribe(topic_for(attribute), self._on_sample)

    # -- protocol ---------------------------------------------------------------

    def on_channel_init(self, event: Event) -> None:
        if self.local_module is None:
            raise RuntimeError(
                "CoreSession not attached; call attach(...) before starting "
                "the control channel")
        self.set_periodic_timer(self.evaluate_interval, tag=_EVALUATE_TIMER,
                                channel=event.channel)

    def on_view(self, event) -> None:
        # Members excluded from the control group also fall out of the data
        # channel on their own (its failure detector sees the same crash) —
        # prune them from the deployed membership so that their *return*
        # (recovery, healed partition) registers as growth and triggers the
        # redeployment that folds them back in.
        if self.deployed_members is not None:
            self.deployed_members = tuple(
                member for member in self.deployed_members
                if member in event.view.members)
        if event.view.coordinator != self.local:
            # The role passed on: the new coordinator decides from what it
            # knows.  A plan kept here would be re-sent, under its old
            # lineage, if the role ever came back — a redeploy nobody else
            # is running, whose hold flush strands the members it misses.
            self._active_plan = None
            self._active_members = None
            self._stranded = False
            self._dirty = False
        else:
            # The members the policy decides for changed (a joiner to fold
            # in, a lost relay to replace), or this node just took the
            # role and has decided nothing yet.
            self._trigger()
        if self.local is not None and \
                self.local in getattr(event, "joiners", ()):
            # Re-admitted from outside the group: any configuration this
            # node applied while isolated (e.g. a singleton's self-switch
            # to plain) used its *own* id numbering, which may collide with
            # the group's.  Start over so the coordinator's next
            # configuration is never mistaken for a duplicate.
            self._last_applied_id = 0
            self._applied_lineage = None
            self._applying_id = None
            self._applying_name = None
            self._applying_lineage = None

    def on_event(self, event: Event) -> None:
        if isinstance(event, TimerEvent):
            if event.tag == _TRIGGER_TIMER:
                self._armed = False
                self._evaluate(event.channel)
            elif event.tag == _EVALUATE_TIMER:
                if self._active_plan is not None:
                    self._resend_pending(event.channel)
                else:
                    self._evaluate(event.channel)
            return
        if isinstance(event, CoreMessage) and event.direction is Direction.UP:
            self._on_message(event)
            return
        event.go()

    # -- coordinator side ------------------------------------------------------------

    @property
    def is_control_coordinator(self) -> bool:
        return self.view is not None and \
            self.view.coordinator == self.local

    def _on_sample(self, topic: str, sample: ContextSample) -> None:
        """A sample of an attribute the policy reads reached the node's bus
        (the coordinator's own, or a member's snapshot republished by
        Cocaditem): a trigger when its value changed."""
        key = (sample.node_id, sample.attribute)
        if self._seen.get(key, _UNSEEN) != sample.value:
            self._seen[key] = sample.value
            self._trigger()

    def _trigger(self) -> None:
        """Mark the group dirty and arm one zero-delay evaluation for this
        instant (the coordinator only: members never decide)."""
        if not self.is_control_coordinator:
            return
        self._dirty = True
        if not self._armed and self.channels:
            self._armed = True
            self.set_timer(0.0, tag=_TRIGGER_TIMER, channel=self.channels[0])

    def _evaluate(self, channel) -> None:
        """Decide, if a trigger is outstanding and no reconfiguration is in
        flight (its completion re-arms the evaluation).  The trigger stays
        outstanding while the policy returns no plan — context still
        missing, or a change the governor vetoed — so the safety-net tick
        retries it."""
        if not self._dirty or self._active_plan is not None or \
                not self.is_control_coordinator or self.policy is None or \
                self.directory is None:
            return
        plan = self.policy.decide(self.directory, list(self.members),
                                  now=channel.kernel.now(), group=self.group)
        if plan is None:
            return
        self._dirty = False
        members_now = tuple(sorted(self.members))
        grown = self.deployed_members is not None and \
            bool(set(members_now) - set(self.deployed_members))
        if plan.name == self.deployed_name and not grown and \
                not self._stranded:
            return
        self._start_reconfiguration(plan, channel)

    def _start_reconfiguration(self, plan: ReconfigurationPlan,
                               channel) -> None:
        # Config ids are totally ordered across coordinator changes: a
        # successor coordinator continues numbering above anything this
        # member has already applied, so members never mistake the new
        # configuration for a duplicate of an old one.
        self._config_id = max(self._config_id, self._last_applied_id) + 1
        self._active_plan = plan
        self._active_members = tuple(sorted(self.members))
        self._stranded = False
        # Lineage of this configuration: the control view it was issued
        # under.  Config ids alone are only monotonic per coordinator, so
        # divergent partitions each mint their own ``#c2``; the lineage
        # rides every (re)send of this configuration — captured once, so
        # retries agree — and keys the data generation's port, keeping
        # same-id generations from different coordinator histories apart.
        assert self.view is not None
        self._active_lineage = (self.view.view_id,) + \
            (self.view.stamp or ("", 0))
        self._acks = set()
        self.last_reconfig_started_at = channel.kernel.clock.now()
        for member in self.members:
            self._send_config(member, channel)

    def _send_config(self, member: str, channel) -> None:
        assert self._active_plan is not None
        template = self._active_plan.templates.get(member)
        if template is None:
            self._acks.add(member)  # nothing to deploy there
            return
        message = self.control_message(
            CoreMessage,
            {"kind": "reconfig", "config_id": self._config_id,
             "lineage": self._active_lineage,
             "name": self._active_plan.name, "xml": template.to_xml(),
             "from": self.local},
            dest=member, source=self.local)
        self.send_down(message, channel=channel)

    def _resend_pending(self, channel) -> None:
        assert self._active_plan is not None
        for member in self.members:
            if member not in self._acks:
                self._send_config(member, channel)
        self._check_complete()

    def _on_query(self, payload: dict, channel) -> None:
        """A member's data stack is held for a configuration it has not
        received: send it again now, not at the next evaluation.  With no
        reconfiguration in flight, the hold came from one this coordinator
        never issued (its issuer lost the role before the member got it),
        and the data channel is not what this coordinator believes: the
        next evaluation redeploys."""
        member = payload["from"]
        if member not in self.members:
            return
        if self._active_plan is None:
            self._stranded = True
            self._trigger()
        elif member not in self._acks:
            self._send_config(member, channel)

    def _on_done(self, payload: dict) -> None:
        # The lineage too: a member that deployed the same id issued under
        # an earlier view has not deployed this configuration.
        lineage = tuple(payload["lineage"]) if payload.get("lineage") \
            else None
        if self._active_plan is None or \
                (payload["config_id"], lineage) != (self._config_id,
                                                    self._active_lineage):
            return
        self._acks.add(payload["from"])
        self._check_complete()

    def _check_complete(self) -> None:
        if self._active_plan is None:
            return
        if set(self.members).issubset(self._acks):
            self.deployed_name = self._active_plan.name
            if self._active_members is not None:
                self.deployed_members = self._active_members
            self._active_plan = None
            self._active_members = None
            self.reconfigurations_completed += 1
            if self.channels:
                self.last_reconfig_completed_at = \
                    self.channels[0].kernel.clock.now()
            if self.on_reconfigured is not None:
                self.on_reconfigured(self.deployed_name)
            if self._dirty:  # a trigger arrived while the plan ran
                self._trigger()

    # -- member side --------------------------------------------------------------------

    def _on_message(self, event: CoreMessage) -> None:
        payload = self.payload_of(event)
        kind = payload["kind"]
        if kind == "reconfig":
            self._on_reconfig(payload, event.channel)
        elif kind == "reconfig_done":
            self._on_done(payload)
        elif kind == "config_query":
            self._on_query(payload, event.channel)

    def _on_reconfig(self, payload: dict, channel) -> None:
        assert self.local_module is not None
        config_id = payload["config_id"]
        lineage = tuple(payload["lineage"]) if payload.get("lineage") \
            else None
        # Ids are monotonic per lineage only: after a merge, the current
        # coordinator may issue the very id this node last applied, under
        # another lineage.  That is a new configuration — taking it for a
        # duplicate left this node on the old generation, held by the new
        # one's flush for good.  It is applied only from this node's own
        # coordinator (a view behind, it waits for the re-send), and never
        # acked unapplied: an ack counts the member as deployed.  A lower
        # id stays a duplicate.
        same_id_new_lineage = config_id == self._last_applied_id and \
            lineage != self._applied_lineage
        if same_id_new_lineage and (self.view is None or
                                    payload.get("from") !=
                                    self.view.coordinator):
            return
        issuer = payload["from"]
        if config_id <= self._last_applied_id and not same_id_new_lineage:
            self._send_done(config_id, lineage, issuer, channel)  # duplicate
            return
        if (config_id, lineage) == (self._applying_id,
                                    self._applying_lineage):
            return  # already in progress
        self._applying_id = config_id
        self._applying_name = payload["name"]
        self._applying_lineage = lineage
        template = ChannelTemplate.from_xml(payload["xml"])
        self.local_module.apply(
            config_id, template,
            done=lambda cid: self._deployed(cid, lineage, issuer, channel),
            lineage=lineage)

    def _deployed(self, config_id: int, lineage: Optional[tuple],
                  issuer: str, channel) -> None:
        if self._applying_id == config_id:
            # Only the configuration being applied counts as applied: one
            # queued before a re-admission reset (on_view) finishes under
            # the old numbering and must not shadow the new lineage's ids.
            self._last_applied_id = max(self._last_applied_id, config_id)
            self._applying_id = None
            self._applied_lineage = self._applying_lineage
            # Every member tracks what it runs: if the coordinator fails,
            # its successor must know the deployed configuration or it
            # would never see a difference worth reconfiguring for.
            if self._applying_name is not None:
                self.deployed_name = self._applying_name
                self._applying_name = None
        self._send_done(config_id, lineage, issuer, channel)

    def _request_config(self) -> None:
        """Ask the coordinator for the configuration this node's held
        data stack waits for (the local module calls this)."""
        if self.view is None or not self.channels:
            return
        query = self.control_message(
            CoreMessage, {"kind": "config_query", "from": self.local},
            dest=self.view.coordinator, source=self.local)
        self.send_down(query, channel=self.channels[0])

    def _send_done(self, config_id: int, lineage: Optional[tuple],
                   issuer: str, channel) -> None:
        # To the issuer, the one node that counts acks for this id and
        # lineage: a joiner may deploy its first configuration before its
        # own control view is installed.
        done = self.control_message(
            CoreMessage,
            {"kind": "reconfig_done", "config_id": config_id,
             "lineage": lineage, "from": self.local},
            dest=issuer, source=self.local)
        self.send_down(done, channel=channel)


@register_layer
class CoreLayer(Layer):
    """Control and reconfiguration component (control channel).

    Parameters: ``evaluate_interval`` (the safety-net period, seconds: the
    coordinator re-sends pending configurations and retries an
    outstanding trigger; it decides on triggers, not on this tick).
    """

    layer_name = "core"
    accepted_events = (CoreMessage, TimerEvent, ViewEvent)
    provided_events = (CoreMessage,)
    session_class = CoreSession
