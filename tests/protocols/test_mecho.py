"""Mecho: the adaptive multicast that powers Figure 3.

The key claims from the paper (§3.4, §4):

* in hybrid scenarios a mobile node transmits **one** message per group
  send (to the relay) instead of ``n-1``;
* the relay forwards to the remaining participants, so everyone still
  delivers everything — *"at the expense of an increase in the number of
  messages of the fixed node"*;
* with two nodes the adaptive and non-adaptive protocols coincide (*"all
  interactions are point-to-point"*).
"""

from __future__ import annotations

import pytest

from repro.protocols import MechoLayer
from repro.simnet import DATA
from tests.protocols.helpers import build_world, collector_of


def build_hybrid(num_mobile: int, seed: int = 5, **kwargs):
    """1 fixed + ``num_mobile`` mobile nodes, all running Mecho."""
    specs = {"fixed-0": "fixed"}
    for index in range(num_mobile):
        specs[f"mobile-{index}"] = "mobile"
    members_csv = ",".join(sorted(specs))

    def dissemination_for(node_id: str) -> MechoLayer:
        mode = "wired" if specs[node_id] == "fixed" else "wireless"
        return MechoLayer(mode=mode, relay="fixed-0", members=members_csv)

    # build_world builds one stack per node; we need per-node dissemination,
    # so replicate its logic through the dissemination_factory hook.
    return build_world(specs, seed=seed,
                       dissemination_factory=dissemination_for, **kwargs)


class TestRelaying:
    def test_everyone_delivers_despite_single_uplink_send(self):
        engine, network, channels = build_hybrid(num_mobile=3)
        engine.run_until(0.5)
        collector_of(channels["mobile-0"]).send_text("via-relay")
        engine.run_until(3.0)
        for node_id, channel in channels.items():
            assert collector_of(channel).payloads() == ["via-relay"], node_id

    def test_source_attribution_preserved_through_relay(self):
        engine, network, channels = build_hybrid(num_mobile=2)
        engine.run_until(0.5)
        collector_of(channels["mobile-1"]).send_text("attributed")
        engine.run_until(3.0)
        delivered = collector_of(channels["mobile-0"]).delivered
        assert delivered[0].source == "mobile-1"

    def test_mobile_sends_one_data_message_per_group_send(self):
        engine, network, channels = build_hybrid(num_mobile=3)
        engine.run_until(0.5)
        network.reset_stats()
        for index in range(10):
            collector_of(channels["mobile-0"]).send_text(index)
        engine.run_until(5.0)
        stats = network.stats_of("mobile-0")
        assert stats.sent_data == 10  # ONE transmission per send; n-1 would be 30

    def test_relay_bears_the_fanout_cost(self):
        engine, network, channels = build_hybrid(num_mobile=3)
        engine.run_until(0.5)
        network.reset_stats()
        for index in range(10):
            collector_of(channels["mobile-0"]).send_text(index)
        engine.run_until(5.0)
        # Relay forwards each message to the 2 other mobiles.
        assert network.stats_of("fixed-0").sent_data == 20

    def test_fixed_node_sends_fan_out_directly(self):
        engine, network, channels = build_hybrid(num_mobile=3)
        engine.run_until(0.5)
        network.reset_stats()
        collector_of(channels["fixed-0"]).send_text("from-fixed")
        engine.run_until(3.0)
        assert network.stats_of("fixed-0").sent_data == 3  # one per mobile
        for channel in channels.values():
            assert collector_of(channel).payloads() == ["from-fixed"]

    def test_two_nodes_equivalent_to_point_to_point(self):
        """Paper: with 2 nodes both versions send the same message count."""
        engine, network, channels = build_hybrid(num_mobile=1)
        engine.run_until(0.5)
        network.reset_stats()
        for index in range(10):
            collector_of(channels["mobile-0"]).send_text(index)
        engine.run_until(5.0)
        assert network.stats_of("mobile-0").sent_data == 10
        # The relay has nobody to forward to.
        assert network.stats_of("fixed-0").sent_data == 0


class TestMechoVersusBaseline:
    @pytest.mark.parametrize("num_mobile", [2, 4])
    def test_mobile_transmission_reduction_factor(self, num_mobile):
        sends = 20
        total_nodes = num_mobile + 1

        engine, network, channels = build_hybrid(num_mobile=num_mobile)
        engine.run_until(0.5)
        network.reset_stats()
        for index in range(sends):
            collector_of(channels["mobile-0"]).send_text(index)
        engine.run_until(5.0)
        mecho_count = network.stats_of("mobile-0").sent_data

        specs = {"fixed-0": "fixed"}
        for index in range(num_mobile):
            specs[f"mobile-{index}"] = "mobile"
        engine2, network2, channels2 = build_world(specs, seed=5)
        engine2.run_until(0.5)
        network2.reset_stats()
        for index in range(sends):
            collector_of(channels2["mobile-0"]).send_text(index)
        engine2.run_until(5.0)
        beb_count = network2.stats_of("mobile-0").sent_data

        assert mecho_count == sends
        assert beb_count == sends * (total_nodes - 1)

    def test_beacons_leave_the_relay_path(self):
        """Liveness beacons are point-to-point facts about a peer: a
        mobile sends its own to each peer, and the relay forwards none."""
        engine, network, channels = build_hybrid(num_mobile=3,
                                                 heartbeat_interval=0.5)
        engine.run_until(0.5)
        network.reset_stats()
        engine.run_until(5.5)  # ~10 heartbeat periods, no data
        beats = {node_id: network.stats_of(node_id).sent_by_event[
            "HeartbeatMessage"] for node_id in channels}
        # One per peer per period from everyone, mobiles included.
        assert beats == dict.fromkeys(channels, 30), beats


class TestInvariants:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="invalid mecho mode"):
            MechoLayer(mode="satellite").create_session()

    def test_no_duplicate_deliveries(self):
        engine, network, channels = build_hybrid(num_mobile=2)
        engine.run_until(0.5)
        for index in range(15):
            collector_of(channels["mobile-0"]).send_text(index)
            collector_of(channels["fixed-0"]).send_text((0, index))
        engine.run_until(5.0)
        for node_id, channel in channels.items():
            payloads = collector_of(channel).payloads()
            assert len(payloads) == len(set(map(str, payloads))) == 30, node_id
