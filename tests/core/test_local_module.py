"""Core local modules: deployment mechanics and race handling."""

from __future__ import annotations

import pytest

from repro.core import LocalModule, plain_data_template, mecho_data_template
from repro.core.templates import TRANSPORT_LABEL
from repro.simnet import (DatagramTransportSession, Network, SimEngine,
                          SimTransportLayer)

MEMBERS = ("n0", "n1")


def build_module(network, node_id):
    node = network.node(node_id)
    transport_layer = SimTransportLayer()
    transport_session = DatagramTransportSession(transport_layer, node=node)
    bindings = {TRANSPORT_LABEL: transport_session}
    return LocalModule(node, "data", bindings)


@pytest.fixture
def world():
    engine = SimEngine()
    network = Network(engine)
    for node_id in MEMBERS:
        network.add_fixed_node(node_id)
    modules = {node_id: build_module(network, node_id)
               for node_id in MEMBERS}
    for module in modules.values():
        module.deploy_initial(plain_data_template(MEMBERS))
    return engine, network, modules


class TestInitialDeploy:
    def test_channel_started_and_tracked(self, world):
        engine, network, modules = world
        for module in modules.values():
            assert module.data_channel is not None
            assert module.data_channel.state.value == "started"
            assert module.deploy_count == 1

    def test_app_session_captured_in_bindings(self, world):
        engine, network, modules = world
        assert "app" in modules["n0"].bindings
        assert "viewsync" in modules["n0"].bindings


class TestReconfiguration:
    def test_apply_swaps_stack_preserving_app(self, world):
        engine, network, modules = world
        engine.run_until(0.5)
        app_before = modules["n0"].bindings["app"]
        done = []
        template = mecho_data_template(MEMBERS, mode="wired", relay="n0")
        for module in modules.values():
            module.apply(1, template, done.append)
        engine.run_until(10.0)
        assert done == [1, 1]
        for module in modules.values():
            assert "mecho" in module.data_channel.layer_names()
            assert module.deploy_count == 2
        assert modules["n0"].bindings["app"] is app_before
        assert modules["n0"].data_channel.sessions[-1] is app_before

    def test_new_generation_boots_fresh_on_config_port(self, world):
        engine, network, modules = world
        engine.run_until(0.5)
        template = mecho_data_template(MEMBERS, mode="wired", relay="n0")
        for module in modules.values():
            module.apply(1, template, lambda cid: None)
        engine.run_until(10.0)
        channel = modules["n0"].data_channel
        assert channel.name == "data#c1"  # generation = agreed config id
        membership = channel.session_named("membership")
        # A generation is a fresh group formed from the template's
        # (globally known) membership; numbering restarts within it.
        assert membership.view.view_id == 0
        assert membership.view.members == MEMBERS

    def test_busy_module_queues_next_config(self, world):
        engine, network, modules = world
        engine.run_until(0.5)
        done = []
        mecho = mecho_data_template(MEMBERS, mode="wired", relay="n0")
        plain = plain_data_template(MEMBERS)
        for module in modules.values():
            module.apply(1, mecho, done.append)
            module.apply(2, plain, done.append)  # queued behind config 1
        engine.run_until(20.0)
        assert sorted(done) == [1, 1, 2, 2]
        for module in modules.values():
            assert "beb" in module.data_channel.layer_names()
            assert module.deploy_count == 3

    def test_mismatched_label_gets_fresh_session(self, world):
        """A label whose layer class changed must not reuse the session."""
        engine, network, modules = world
        engine.run_until(0.5)
        module = modules["n0"]
        # Sabotage: bind the 'viewsync' label to the transport session.
        saboteur = module.bindings[TRANSPORT_LABEL]
        module.bindings["viewsync"] = saboteur
        template = mecho_data_template(MEMBERS, mode="wired", relay="n0")
        for member_module in modules.values():
            member_module.apply(1, template, lambda cid: None)
        engine.run_until(10.0)
        viewsync = module.data_channel.session_named("view_sync")
        assert viewsync is not saboteur


class TestQuiescenceRaces:
    def test_quiescence_before_config_arrival(self, world):
        """The flush may finish before this node receives the config."""
        engine, network, modules = world
        engine.run_until(0.5)
        # n1's membership reaches quiescence because n0 (coordinator)
        # triggered a hold-flush...
        template = mecho_data_template(MEMBERS, mode="wired", relay="n0")
        modules["n0"].apply(1, template, lambda cid: None)
        engine.run_until(5.0)
        # ...while n1 has no config yet: its data channel is held.
        membership = modules["n1"].data_channel.session_named("membership")
        assert membership.phase.value == "held"
        assert modules["n1"]._held_view is not None
        # The config arrives late; the swap must happen immediately.
        done = []
        modules["n1"].apply(1, template, done.append)
        engine.run_until(10.0)
        assert done == [1]
        assert "mecho" in modules["n1"].data_channel.layer_names()
