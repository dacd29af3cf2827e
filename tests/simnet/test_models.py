"""Unit tests for loss models, the energy model and the stats counters."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Message, SendableEvent
from repro.simnet import (Battery, BernoulliLoss, EnergyParams,
                          GilbertElliottLoss, NodeStats, NoLoss, Packet,
                          aggregate)


class TestLossModels:
    def test_no_loss_never_drops(self):
        model = NoLoss()
        assert not any(model.is_lost(100) for _ in range(1000))

    def test_bernoulli_extremes(self):
        rng = random.Random(0)
        assert not any(BernoulliLoss(0.0, rng).is_lost(1) for _ in range(100))
        assert all(BernoulliLoss(1.0, rng).is_lost(1) for _ in range(100))

    def test_bernoulli_rate_approximation(self):
        model = BernoulliLoss(0.3, random.Random(42))
        losses = sum(model.is_lost(100) for _ in range(10_000))
        assert 0.27 < losses / 10_000 < 0.33

    def test_bernoulli_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5, random.Random(0))
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1, random.Random(0))

    def test_gilbert_elliott_burstiness(self):
        """Losses cluster: the conditional loss probability after a loss is
        much higher than the marginal rate."""
        model = GilbertElliottLoss(random.Random(7), p_good=0.001,
                                   p_bad=0.5, p_good_to_bad=0.02,
                                   p_bad_to_good=0.2)
        outcomes = [model.is_lost(100) for _ in range(50_000)]
        marginal = sum(outcomes) / len(outcomes)
        after_loss = [b for a, b in zip(outcomes, outcomes[1:]) if a]
        conditional = sum(after_loss) / len(after_loss)
        assert conditional > 2 * marginal

    def test_gilbert_elliott_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(random.Random(0), p_bad=1.2)

    def test_gilbert_elliott_deterministic_given_seed(self):
        def run(seed):
            model = GilbertElliottLoss(random.Random(seed))
            return [model.is_lost(50) for _ in range(200)]

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestLossModelProperties:
    """Property-based guarantees the adaptation policies lean on."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           sizes=st.lists(st.integers(min_value=0, max_value=65536),
                          min_size=1, max_size=200))
    def test_zero_probability_bernoulli_never_loses(self, seed, sizes):
        model = BernoulliLoss(0.0, random.Random(seed))
        assert not any(model.is_lost(size) for size in sizes)

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=0, max_value=65536),
                          min_size=1, max_size=200))
    def test_no_loss_never_loses(self, sizes):
        model = NoLoss()
        assert not any(model.is_lost(size) for size in sizes)

    @pytest.mark.parametrize("seed", [1, 7, 42, 1234])
    def test_gilbert_elliott_converges_to_stationary_rate(self, seed):
        """The empirical loss rate converges to the chain's stationary
        distribution: with the per-packet transition matrix, the fraction
        of draws made in the bad state tends to g2b/(g2b + b2g), and the
        loss rate to the state-weighted mixture of p_good and p_bad."""
        p_good, p_bad = 0.01, 0.4
        g2b, b2g = 0.05, 0.2
        pi_bad = g2b / (g2b + b2g)
        expected = (1.0 - pi_bad) * p_good + pi_bad * p_bad
        model = GilbertElliottLoss(random.Random(seed), p_good=p_good,
                                   p_bad=p_bad, p_good_to_bad=g2b,
                                   p_bad_to_good=b2g)
        draws = 60_000
        losses = sum(model.is_lost(100) for _ in range(draws))
        empirical = losses / draws
        assert abs(empirical - expected) < 0.15 * expected, \
            f"empirical {empirical:.4f} vs stationary {expected:.4f}"

    @pytest.mark.parametrize("seed", [3, 9])
    def test_gilbert_elliott_extreme_chains_degenerate_correctly(self, seed):
        """A chain pinned in one state reduces to Bernoulli of that
        state's probability."""
        pinned_good = GilbertElliottLoss(random.Random(seed), p_good=0.0,
                                         p_bad=1.0, p_good_to_bad=0.0,
                                         p_bad_to_good=1.0)
        assert not any(pinned_good.is_lost(10) for _ in range(2000))
        pinned_bad = GilbertElliottLoss(random.Random(seed), p_good=0.0,
                                        p_bad=1.0, p_good_to_bad=1.0,
                                        p_bad_to_good=0.0)
        pinned_bad.is_lost(10)  # first draw may still be in the good state
        assert all(pinned_bad.is_lost(10) for _ in range(2000))


class TestBattery:
    def test_transmission_costs_scale_with_size(self):
        small = Battery(capacity_mj=1000.0)
        large = Battery(capacity_mj=1000.0)
        small.consume_tx(10, 0.0)
        large.consume_tx(10_000, 0.0)
        assert large.level_mj < small.level_mj

    def test_tx_costs_more_than_rx(self):
        params = EnergyParams()
        tx = Battery(capacity_mj=1000.0, params=params)
        rx = Battery(capacity_mj=1000.0, params=params)
        tx.consume_tx(500, 0.0)
        rx.consume_rx(500, 0.0)
        assert tx.level_mj < rx.level_mj

    def test_depletion_records_time_and_clamps(self):
        battery = Battery(capacity_mj=1.0)
        battery.consume_tx(10_000, now=42.0)
        assert battery.level_mj == 0.0
        assert not battery.alive
        assert battery.depleted_at == 42.0

    def test_dead_battery_consumes_nothing_further(self):
        battery = Battery(capacity_mj=0.5)
        battery.consume_tx(10_000, now=1.0)
        depleted_at = battery.depleted_at
        battery.consume_tx(10_000, now=2.0)
        assert battery.depleted_at == depleted_at

    def test_fraction(self):
        battery = Battery(capacity_mj=100.0,
                          params=EnergyParams(tx_per_packet_mj=50.0,
                                              tx_per_byte_mj=0.0))
        assert battery.fraction == 1.0
        battery.consume_tx(0, 0.0)
        assert battery.fraction == pytest.approx(0.5)

    @settings(max_examples=40, deadline=None)
    @given(events=st.lists(
        st.tuples(st.sampled_from(["tx", "rx"]),
                  st.integers(min_value=0, max_value=2000)),
        max_size=50))
    def test_level_monotonically_decreases(self, events):
        battery = Battery(capacity_mj=10_000.0)
        previous = battery.level_mj
        for kind, size in events:
            if kind == "tx":
                battery.consume_tx(size, 0.0)
            else:
                battery.consume_rx(size, 0.0)
            assert battery.level_mj <= previous
            previous = battery.level_mj


def _packet(src="a", dst="b", traffic_class="data", size=100):
    return Packet(src=src, dst=dst, port="p", event_cls=SendableEvent,
                  message=Message(payload=b"x" * size),
                  traffic_class=traffic_class)


class TestNodeStats:
    def test_snapshot_shape(self):
        stats = NodeStats("n")
        stats.record_sent(_packet())
        stats.record_sent(_packet(traffic_class="control"))
        stats.record_received(_packet())
        snapshot = stats.snapshot()
        assert snapshot["sent_total"] == 2
        assert snapshot["sent_data"] == 1
        assert snapshot["sent_control"] == 1
        assert snapshot["recv_total"] == 1
        assert snapshot["sent_by_event"] == {"SendableEvent": 2}

    def test_bytes_accounting(self):
        stats = NodeStats("n")
        packet = _packet(size=200)
        stats.record_sent(packet)
        assert stats.sent_wire_bytes_total == packet.size_bytes

    def test_reset_zeroes_everything(self):
        stats = NodeStats("n")
        stats.record_sent(_packet())
        stats.record_dropped()
        stats.reset()
        assert stats.sent_total == 0
        assert stats.dropped_packets == 0

    def test_aggregate_sums_across_nodes(self):
        a, b = NodeStats("a"), NodeStats("b")
        a.record_sent(_packet())
        b.record_sent(_packet(traffic_class="control"))
        b.record_received(_packet())
        total = aggregate([a, b])
        assert total["sent_total"] == 2
        assert total["sent_control"] == 1
        assert total["recv_total"] == 1


class TestPacket:
    def test_size_includes_overhead(self):
        packet = _packet(size=100)
        assert packet.size_bytes > 100

    def test_multicast_detection(self):
        assert _packet(dst=("a", "b")).is_multicast
        assert not _packet(dst="a").is_multicast

    def test_each_receivers_event_isolates_the_message(self):
        """One packet reaches every receiver of a fan-out; the event each
        receiver's transport builds holds its own handle onto the
        message, addressed to that receiver."""
        from tests.simnet.test_transport import build_node_stack

        from repro.simnet import Network, SimEngine

        engine = SimEngine()
        network = Network(engine, native_multicast_wired=True)
        apps = {}
        for node_id in ("a", "b", "c"):
            network.add_fixed_node(node_id)
            apps[node_id] = build_node_stack(network, node_id).sessions[1]
        packet = Packet(src="a", dst=("a", "b", "c"), port="data",
                        event_cls=SendableEvent,
                        message=Message(payload=b"x" * 100).wire_copy())
        network.transmit(network.node("a"), packet)
        engine.run_until_idle()
        (at_b,), (at_c,) = apps["b"].received, apps["c"].received
        at_b.message.push_header("mutation")
        assert packet.message.headers == []
        assert at_c.message.headers == []
        assert (at_b.dest, at_c.dest) == ("b", "c")
        assert at_c.message.payload == b"x" * 100
