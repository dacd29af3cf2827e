"""The Morpheus facade: one call wires a node into the full architecture.

A :class:`MorpheusNode` assembles, per device (Figure 1):

* the node's protocol kernel and one shared transport session (NIC adapter);
* the **control channel** hosting Cocaditem (context capture/dissemination)
  and Core (control + reconfiguration), which share the channel *"for
  performance reasons"* (paper §3.3);
* the **data channel**, initially the plain configuration, thereafter
  whatever Core's policy deploys;
* the chat application session, preserved across reconfigurations.

:class:`PlainNode` builds the non-adaptive baseline used by the paper's
evaluation: the same application and group-communication suite, but no
Morpheus components and therefore no adaptation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps.chat import ChatSession
from repro.context.cocaditem import CocaditemSession
from repro.context.pubsub import TopicBus
from repro.context.retrievers import ContextRetriever
from repro.core.core_layer import CoreSession
from repro.core.local_module import LocalModule
from repro.core.rules import HybridMechoRule, PolicyEngine
from repro.core.rules.plan import ContextDirectory, Policy
from repro.core.templates import (APP_LABEL, TRANSPORT_LABEL,
                                  control_template, plain_data_template)
from repro.kernel.channel import Channel
from repro.kernel.events import Direction
from repro.kernel.transport import DatagramTransportSession
from repro.kernel.xml_config import ChannelTemplate
from repro.protocols.events import LeaveRequestEvent
from repro.simnet.network import NetworkBase
from repro.simnet.transport import SimTransportLayer


class MorpheusNode:
    """A device running the full Morpheus architecture.

    Args:
        network: the simulated network (node must already exist in it).
        node_id: this device's identifier.
        group_members: bootstrap membership of both the control and the
            data group (the paper's prototype uses the same set).
        policy: reconfiguration policy; defaults to an engine running the
            paper's ``hybrid_mecho`` rule.
        data_template: initial data-channel configuration; defaults to the
            plain (non-adaptive) stack, which Core then adapts.
        ordering: optional ordering layers for the data stack
            (``"causal"``/``"total"``).
        room: chat room name.
        publish_interval / evaluate_interval / heartbeat_interval /
        nack_interval: component periods, in virtual seconds.
        retrievers: context retriever set (defaults to the standard five).
        joining: build the node as a mid-run joiner — its control channel
            solicits admission from ``group_members`` (which must list the
            running group plus this node) and its data channel boots as a
            singleton until the Core coordinator folds it into the group's
            next configuration.
    """

    def __init__(self, network: NetworkBase, node_id: str,
                 group_members: Sequence[str], *,
                 policy: Optional[Policy] = None,
                 data_template: Optional[ChannelTemplate] = None,
                 ordering: Sequence[str] = (),
                 room: str = "lobby",
                 publish_interval: float = 10.0,
                 evaluate_interval: float = 5.0,
                 heartbeat_interval: float = 5.0,
                 nack_interval: float = 0.25,
                 retrievers: Optional[list[ContextRetriever]] = None,
                 joining: bool = False) -> None:
        self.network = network
        self.node = network.node(node_id)
        self.members = tuple(sorted(group_members))
        self.joining = joining
        self.bus = TopicBus()
        self.directory = ContextDirectory(self.bus)

        stack_options = {
            "ordering": tuple(ordering),
            "heartbeat_interval": heartbeat_interval,
            "nack_interval": nack_interval,
            "app_layer": "chat_app",
            "app_params": {"room": room},
        }
        self._stack_options = stack_options

        transport_layer = SimTransportLayer()
        transport_session = DatagramTransportSession(transport_layer,
                                                     node=self.node)
        self.bindings = {TRANSPORT_LABEL: transport_session}
        self.local_module = LocalModule(self.node,
                                        session_bindings=self.bindings)

        # Control channel: Cocaditem + Core over their own group suite.
        ctrl = control_template(self.members,
                                publish_interval=publish_interval,
                                evaluate_interval=evaluate_interval,
                                heartbeat_interval=heartbeat_interval,
                                nack_interval=nack_interval,
                                joining=joining)
        self.control_channel: Channel = ctrl.instantiate(
            self.node.kernel, channel_name="ctrl",
            session_bindings=self.bindings, start=False)
        cocaditem = self.control_channel.session_named("cocaditem")
        assert isinstance(cocaditem, CocaditemSession)
        cocaditem.attach(self.node, self.bus, retrievers)
        self.cocaditem = cocaditem
        core = self.control_channel.session_named("core")
        assert isinstance(core, CoreSession)
        self.policy = policy if policy is not None else PolicyEngine(
            (HybridMechoRule(stack_options=stack_options),))
        # A joiner's initial data channel is a singleton group: the Core
        # coordinator redeploys everyone (joiner included) with the grown
        # membership once the control channel admits it.
        initial_data_members = (node_id,) if joining else self.members
        core.attach(self.local_module, self.policy, self.directory, self.bus,
                    initial_config_name="plain",
                    initial_members=initial_data_members)
        self.core = core
        self.control_channel.start()

        # Data channel: plain configuration until Core decides otherwise.
        template = data_template if data_template is not None else \
            plain_data_template(initial_data_members, **stack_options)
        self.data_channel = self.local_module.deploy_initial(template)

        chat = self.bindings.get(APP_LABEL)
        assert isinstance(chat, ChatSession), \
            "data template must place a chat_app layer on top"
        self.chat = chat

        # Event-driven adaptation: any runtime topology mutation triggers
        # an immediate context dissemination (one virtual instant later, so
        # the publish runs outside the mutating call), instead of waiting
        # out the publish interval.
        network.subscribe_topology(self._on_topology_change)
        self._subscribed = True

    def _on_topology_change(self, change) -> None:
        if not self.node.alive:
            return
        # News about a node across a partition line cannot reach this
        # node's sensors — only events in the reachable component count.
        # Network-wide changes (loss swaps, the partition itself) always
        # trigger: they alter this node's own link conditions.
        if change.node_id is not None and \
                not self.network.reachable(self.node_id, change.node_id):
            return
        self.network.engine.call_later(0.0, self.cocaditem.publish_now)

    # -- conveniences -----------------------------------------------------------

    @property
    def node_id(self) -> str:
        return self.node.node_id

    @property
    def stats(self):
        """NIC counters (the Figure 3 instrument)."""
        return self.node.stats

    def send(self, text: str) -> None:
        """Send a chat message to the group."""
        self.chat.send(text)

    def leave(self) -> None:
        """Gracefully leave both groups (control and data).

        The membership layers run their leave flushes; the caller is
        expected to remove the node from the network once they complete
        (see :meth:`~repro.simnet.network.NetworkBase.remove_node`).
        """
        if self.local_module.data_channel is not None:
            self.local_module.data_channel.insert(LeaveRequestEvent(),
                                                  Direction.DOWN)
        self.control_channel.insert(LeaveRequestEvent(), Direction.DOWN)
        self._unsubscribe()

    def _unsubscribe(self) -> None:
        if self._subscribed:
            self.network.unsubscribe_topology(self._on_topology_change)
            self._subscribed = False

    def current_stack(self) -> list[str]:
        """Layer names of the live data stack, bottom → top."""
        channel = self.local_module.data_channel
        return channel.layer_names() if channel is not None else []

    def deployed_configuration(self) -> Optional[str]:
        """Name of the currently deployed data template on this node."""
        return self.local_module.current_template_name


class PlainNode:
    """The non-adaptive baseline: same app + suite, no Morpheus components."""

    def __init__(self, network: NetworkBase, node_id: str,
                 group_members: Sequence[str], *,
                 ordering: Sequence[str] = (),
                 room: str = "lobby",
                 heartbeat_interval: float = 5.0,
                 nack_interval: float = 0.25,
                 native: bool = False) -> None:
        self.network = network
        self.node = network.node(node_id)
        self.members = tuple(sorted(group_members))
        transport_layer = SimTransportLayer()
        transport_session = DatagramTransportSession(transport_layer,
                                                     node=self.node)
        self.bindings = {TRANSPORT_LABEL: transport_session}
        template = plain_data_template(
            self.members, ordering=ordering, app_params={"room": room},
            heartbeat_interval=heartbeat_interval,
            nack_interval=nack_interval, native=native)
        self.data_channel = template.instantiate(
            self.node.kernel, channel_name="data",
            session_bindings=self.bindings)
        chat = self.bindings.get(APP_LABEL)
        assert isinstance(chat, ChatSession)
        self.chat = chat

    @property
    def node_id(self) -> str:
        return self.node.node_id

    @property
    def stats(self):
        return self.node.stats

    def send(self, text: str) -> None:
        self.chat.send(text)


def build_morpheus_group(network: NetworkBase,
                         **options) -> dict[str, MorpheusNode]:
    """One :class:`MorpheusNode` per node already present in ``network``."""
    members = network.node_ids()
    return {node_id: MorpheusNode(network, node_id, members, **options)
            for node_id in members}


def build_plain_group(network: NetworkBase,
                      **options) -> dict[str, PlainNode]:
    """One :class:`PlainNode` per node already present in ``network``."""
    members = network.node_ids()
    return {node_id: PlainNode(network, node_id, members, **options)
            for node_id in members}
