"""Coverage for ``reachable`` — the partition-topology contract.

``reachable`` answers one question: can packets from ``src`` currently
reach ``dst``, considering partition topology only (loss and crash state
are separate axes).  The context layer filters topology news through
it, so the contract gets pinned here, on both backends: it is part of the ``Transport`` seam ``core/morpheus.py`` is
written against, and the live network once lacked it.
"""

from __future__ import annotations

from repro.simnet.engine import SimEngine
from repro.simnet.network import Network
from repro.simnet.node import NodeKind
from tests.livenet.helpers import offline_live_network


class OnSimulator:
    """Builds the network under test; the ``...Live`` classes at the end
    of the file rerun every case on a ``LiveNetwork``."""

    live = False

    def network(self, *node_ids):
        kinds = {node_id: NodeKind.MOBILE if node_id.startswith("m")
                 else NodeKind.FIXED for node_id in node_ids}
        if self.live:
            return offline_live_network(kinds)[0]
        network = Network(SimEngine())
        for node_id, kind in kinds.items():
            network.add_node(node_id, kind)
        return network


class TestUnpartitioned(OnSimulator):
    def test_everyone_reaches_everyone(self):
        network = self.network("f0", "f1", "m0")
        assert network.reachable("f0", "m0")
        assert network.reachable("m0", "f1")

    def test_self_reachability(self):
        network = self.network("f0")
        assert network.reachable("f0", "f0")


class TestPartitioned(OnSimulator):
    def test_same_group_reaches(self):
        network = self.network("f0", "f1", "m0")
        network.partition({"f0", "f1"}, {"m0"})
        assert network.reachable("f0", "f1")
        assert network.reachable("f1", "f0")

    def test_cross_group_does_not_reach(self):
        network = self.network("f0", "f1", "m0")
        network.partition({"f0", "f1"}, {"m0"})
        assert not network.reachable("f0", "m0")
        assert not network.reachable("m0", "f1")

    def test_self_reachability_inside_a_group(self):
        network = self.network("f0", "m0")
        network.partition({"f0"}, {"m0"})
        assert network.reachable("f0", "f0")
        assert network.reachable("m0", "m0")

    def test_node_outside_every_group_reaches_nobody(self):
        network = self.network("f0", "f1", "m0")
        network.partition({"f0"}, {"f1"})
        # m0 is in no group: unreachable from everyone, reaches no one —
        # not even itself (it has no component to stand in).
        assert not network.reachable("m0", "f0")
        assert not network.reachable("m0", "m0")
        # And nobody reaches into the void either.
        assert not network.reachable("f0", "m0")

    def test_partition_bumps_topology_epoch(self):
        network = self.network("f0", "f1")
        epoch = network.topology_epoch
        network.partition({"f0"}, {"f1"})
        assert network.topology_epoch == epoch + 1


class TestHeal(OnSimulator):
    def test_heal_restores_full_reachability(self):
        network = self.network("f0", "f1", "m0")
        network.partition({"f0"}, {"f1", "m0"})
        assert not network.reachable("f0", "f1")
        network.heal_partition()
        assert network.reachable("f0", "f1")
        assert network.reachable("f0", "m0")
        assert network.reachable("m0", "f0")

    def test_repartition_replaces_previous_groups(self):
        network = self.network("f0", "f1", "m0")
        network.partition({"f0"}, {"f1", "m0"})
        network.partition({"f0", "f1"}, {"m0"})
        assert network.reachable("f0", "f1")
        assert not network.reachable("f1", "m0")


class TestRemovedNodes(OnSimulator):
    def test_removed_node_id_still_answers_by_group_membership(self):
        # Partition groups are id sets, not node references: a departed
        # node's id keeps answering by its (former) component.  Liveness
        # is a separate check — delivery tests it via SimNode.alive.
        network = self.network("f0", "f1")
        network.partition({"f0", "f1"})
        network.remove_node("f1")
        assert network.reachable("f0", "f1")
        assert "f1" not in network.nodes
        assert "f1" in network.departed

    def test_unknown_id_without_partition_is_trivially_reachable(self):
        # No partition: reachable() is a pure topology predicate and does
        # not consult the roster at all.
        network = self.network("f0")
        assert network.reachable("f0", "ghost")
        assert network.reachable("ghost", "f0")


class TestUnpartitionedLive(TestUnpartitioned):
    live = True


class TestPartitionedLive(TestPartitioned):
    live = True


class TestHealLive(TestHeal):
    live = True


class TestRemovedNodesLive(TestRemovedNodes):
    live = True
