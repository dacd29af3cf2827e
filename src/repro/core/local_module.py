"""Core local modules: per-node deployment of new configurations (§3.3).

*"[Core is] composed of: i) a control component, responsible for monitoring
the state of the distributed application and for coordinating the
reconfiguration and ii) a set of local modules, responsible for locally
deploying a new configuration of the communication protocols when needed."*

The local module owns the node's **data channel**.  Reconfiguration follows
the paper's procedure exactly:

1. trigger a view change on the data channel (``hold`` variant — the flush
   completes and the stack stays blocked);
2. when the channel is quiescent, close the old stack and instantiate the
   new one from its XML description, preserving the labelled sessions
   (application, view-synchrony queue, transport);
3. the new stack boots directly into the agreed view — numbering continues
   — and data flow resumes.

Races handled: quiescence may arrive *before* this node has received the
configuration (another node's coordinator started the flush first) — the
held view is remembered and the swap happens as soon as the configuration
lands.  A configuration arriving mid-swap is queued and applied after.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.kernel.channel import Channel, ChannelState
from repro.kernel.events import Direction
from repro.kernel.session import Session
from repro.kernel.xml_config import ChannelTemplate
from repro.protocols.events import TriggerViewChangeEvent, View
from repro.simnet.node import Node

DoneCallback = Callable[[int], None]


class LocalModule:
    """Deploys data-channel configurations on one node."""

    def __init__(self, node: Node, channel_name: str = "data",
                 session_bindings: Optional[dict[str, Session]] = None,
                 trigger_retry_interval: float = 1.0) -> None:
        self.node = node
        self.channel_name = channel_name
        self.bindings: dict[str, Session] = session_bindings \
            if session_bindings is not None else {}
        self.trigger_retry_interval = trigger_retry_interval
        self.data_channel: Optional[Channel] = None
        self._busy = False
        self._active: Optional[
            tuple[int, ChannelTemplate, DoneCallback, Optional[tuple]]] = None
        self._pending: Optional[
            tuple[int, ChannelTemplate, DoneCallback, Optional[tuple]]] = None
        self._held_view: Optional[View] = None
        self._retry_handle = None
        #: Completed deployments (including the initial one).
        self.deploy_count = 0
        #: Name of the template currently deployed (diagnostics).
        self.current_template_name: Optional[str] = None

    # -- deployment -----------------------------------------------------------

    def deploy_initial(self, template: ChannelTemplate) -> Channel:
        """Instantiate and start the first data stack."""
        channel = template.instantiate(self.node.kernel,
                                       channel_name=self.channel_name,
                                       session_bindings=self.bindings)
        self.data_channel = channel
        self.current_template_name = template.name
        self.deploy_count += 1
        self._hook_membership()
        return channel

    def shutdown(self) -> None:
        """Tear the data stack down for good (cell re-formation).

        Cancels the trigger retry, forgets any in-flight reconfiguration
        (a pending swap scheduled for the next virtual instant finds
        ``_busy`` false and no-ops), and closes the live channel.  The
        module is not reusable afterwards; re-formation builds a fresh
        node facade.
        """
        self._cancel_retry()
        self._busy = False
        self._active = None
        self._pending = None
        self._held_view = None
        channel = self.data_channel
        if channel is not None and channel.state is ChannelState.STARTED:
            channel.close()

    def apply(self, config_id: int, template: ChannelTemplate,
              done: DoneCallback,
              lineage: Optional[tuple] = None) -> None:
        """Deploy ``template`` once the data channel reaches quiescence.

        ``lineage`` identifies the control view the coordinator issued the
        configuration under (``(view_id, announcer, incarnation)``).  Config
        ids are only monotonic per coordinator lineage: after a partition,
        each side mints its own ``#c2``, and a post-merge coordinator can
        re-issue a generation name a splinter already used — the same-named
        ports then let stale-generation retransmissions into the fresh stack,
        whose bootstrap reliable epoch matches theirs.  Folding the lineage
        into the generation name keeps ports distinct across coordinator
        histories.
        """
        if self._busy:
            self._pending = (config_id, template, done, lineage)
            return
        self._busy = True
        self._active = (config_id, template, done, lineage)
        if self._held_view is not None:
            # The flush completed before our configuration arrived.
            self._schedule_swap()
            return
        self._request_quiescence()

    # -- quiescence ----------------------------------------------------------------

    def _hook_membership(self) -> None:
        assert self.data_channel is not None
        membership = self.data_channel.session_named("membership")
        if membership is not None:
            membership.quiescence_listener = self._on_quiescent

    def _request_quiescence(self) -> None:
        channel = self.data_channel
        if channel is not None and channel.state is ChannelState.STARTED:
            channel.insert(TriggerViewChangeEvent(hold=True), Direction.DOWN)
        self._arm_retry()

    def _arm_retry(self) -> None:
        self._cancel_retry()
        self._retry_handle = self.node.kernel.clock.call_later(
            self.trigger_retry_interval, self._retry_trigger)

    def _cancel_retry(self) -> None:
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None

    def _retry_trigger(self) -> None:
        self._retry_handle = None
        if self._busy and self._held_view is None:
            self._request_quiescence()

    def _on_quiescent(self, view: View) -> None:
        """Membership hook: flush complete, stack blocked and replaceable."""
        self._held_view = view
        self._cancel_retry()
        if self._busy:
            self._schedule_swap()

    def _schedule_swap(self) -> None:
        # Swap outside the membership layer's dispatch context.
        self.node.kernel.clock.call_later(0.0, self._swap)

    # -- the swap itself ----------------------------------------------------------------

    def _swap(self) -> None:
        if not self._busy or self._active is None or self._held_view is None:
            return
        config_id, template, done, lineage = self._active
        view = self._held_view
        self._held_view = None
        old = self.data_channel
        if old is not None and old.state is ChannelState.STARTED:
            old.close()
        self._reconcile_bindings(template)
        # Per-generation port isolation, keyed by the *globally agreed*
        # config id: members swap at slightly different instants
        # (configuration delivery skew), and during that window the old and
        # the new stack use different wire framings.  Naming the channel
        # after the config id keeps generations apart at the transport —
        # cross-generation control packets are dropped at an unbound port
        # and recovered by their periodic retransmission — and, because the
        # id (unlike a local view id) is identical at every member, the new
        # generation boots as ONE group with the template's membership even
        # if the old data group had splintered.  Every reconfiguration is
        # thus also a group re-formation from the control plane's globally
        # consistent knowledge; view synchrony still guarantees no data
        # message straddles the boundary within each surviving subgroup.
        generation_name = f"{self.channel_name}#c{config_id}"
        if lineage:
            # Same value at every member (it rides the reconfig message), so
            # the group still boots as ONE generation; the suffix only
            # separates generations minted by different coordinator
            # histories.  Ports are names, not wire bytes — packet overhead
            # is a fixed charge — so byte accounting is unchanged.
            generation_name += "@" + ".".join(str(part) for part in lineage)
        channel = template.instantiate(self.node.kernel,
                                       channel_name=generation_name,
                                       session_bindings=self.bindings)
        self.data_channel = channel
        self.current_template_name = template.name
        self.deploy_count += 1
        self._hook_membership()
        self._busy = False
        self._active = None
        done(config_id)
        if self._pending is not None:
            queued, self._pending = self._pending, None
            self.apply(*queued)

    def _reconcile_bindings(self, template: ChannelTemplate) -> None:
        """Drop preserved sessions whose layer class changed in the new stack.

        Reusing a session under a different layer implementation would mix
        incompatible state; a fresh session is always safe.
        """
        labelled = {spec.session_label: spec.name for spec in template.specs
                    if spec.session_label}
        for label, session in list(self.bindings.items()):
            expected = labelled.get(label)
            if expected is not None and session.layer.name() != expected:
                del self.bindings[label]
