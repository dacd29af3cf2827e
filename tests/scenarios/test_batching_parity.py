"""Differential proofs for the hot-path rework: batching and the codec.

* **batched vs unbatched** — coalescing same-slot deliveries into one
  engine event must not change a single observable: every
  :class:`ScenarioResult` field except ``engine_events`` (the batching
  exists to shrink that one) compares equal, across the full canned suite
  and a fuzzed scenario, to a run whose network schedules one engine
  entry per packet (:func:`tests.simnet.unbatched.unbatched`).
* **wheel vs heap under batching** — the reference heap engine and the
  timer wheel must agree on the *complete* result, ``engine_events``
  included: the flush drain makes its continue/stop decisions from a
  slot-end bound both engines compute identically.
* **codec round-trip parity** — with the codec's parity mode armed,
  every encode on a real scenario asserts that it decodes back to an
  equal value; a whole canned run passing means the wire format carries
  everything the stack sends.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.kernel import codec
from repro.scenarios import (ChatBurst, Crash, NodeSpec, Partition, Scenario,
                             ScenarioRunner)
from repro.scenarios.fuzz import generate_scenario, run_seed_for
from repro.scenarios.library import canned
from repro.scenarios.runner import run_scenario
from repro.simnet import network as network_module
from repro.simnet.engine import HeapSimEngine
from tests.simnet.unbatched import unbatched

CANNED = ["commuter_handoff", "flash_crowd_join", "degrading_channel_fec",
          "churn_storm", "partition_heal", "energy_rotation"]


def _without_engine_events(result):
    return dataclasses.replace(result, engine_events=0)


class TestBatchedUnbatchedParity:
    @pytest.mark.parametrize("name", CANNED)
    def test_canned_histories_identical(self, name):
        batched = run_scenario(canned(name))
        with unbatched():
            plain = run_scenario(canned(name))
        assert batched.engine_events < plain.engine_events
        assert _without_engine_events(batched) == _without_engine_events(plain)

    def test_fuzzed_scenario_histories_identical(self):
        scenario = generate_scenario(7, 3, mix="partition")
        seed = run_seed_for(7, 3)
        batched = run_scenario(scenario, seed=seed)
        with unbatched():
            plain = run_scenario(scenario, seed=seed)
        assert _without_engine_events(batched) == _without_engine_events(plain)


class TestWheelHeapParityUnderBatching:
    @pytest.mark.parametrize("name", CANNED)
    def test_engines_agree_on_everything(self, name):
        wheel = run_scenario(canned(name))
        heap = run_scenario(canned(name), engine_factory=HeapSimEngine)
        assert wheel == heap  # engine_events included


class TestCodecRoundTripParity:
    @pytest.mark.parametrize("name", ["commuter_handoff", "churn_storm"])
    def test_every_encode_round_trips(self, name):
        codec.set_parity(True)
        try:
            armed = run_scenario(canned(name))
        finally:
            codec.set_parity(False)
        assert armed == run_scenario(canned(name))  # parity mode is inert

    def test_wire_bytes_counters_populated(self):
        result = run_scenario(canned("commuter_handoff"))
        for snapshot in result.stats.values():
            if snapshot["sent_total"]:
                assert snapshot["sent_wire_bytes"] > 0


# -- one queue entry per (request, instant), under churn -----------------------

def mixed_group(duration_s: float = 24.0, events=(), battery_mj=None):
    """Three fixed and three mobile members, chat from a fixed and a
    mobile sender; ``battery_mj`` powers ``mobile-2``."""
    nodes = tuple(NodeSpec(f"fixed-{index}", "fixed") for index in range(3))
    nodes += tuple(
        NodeSpec(f"mobile-{index}", "mobile",
                 battery_mj=battery_mj if index == 2 else None)
        for index in range(3))
    return Scenario(
        name="mixed_fan_out", duration_s=duration_s, nodes=nodes,
        events=tuple(events),
        workload=(ChatBurst(start=1.0, sender="fixed-0", count=30,
                            interval=0.4),
                  ChatBurst(start=1.2, sender="mobile-2", count=30,
                            interval=0.4, prefix="w")),
        heartbeat_interval=1.0)


@contextmanager
def entries_recorded():
    """Record ``(routed at, instant, receivers, sender)`` of every queue
    entry, and every receiver the network judges ``(now, receiver)``."""
    entries, judged = [], []
    enqueue, deliver = network_module._DeliveryBatcher.enqueue, \
        network_module.deliver

    def recording(self, when, seqs, dsts, packet):
        entries.append((self.engine.now(), when,
                        tuple(dst.node_id for dst in dsts), packet.src))
        enqueue(self, when, seqs, dsts, packet)

    def judging(network, node, packet):
        judged.append((network.engine.now(), node.node_id))
        deliver(network, node, packet)

    with mock.patch.object(network_module._DeliveryBatcher, "enqueue",
                           recording), \
            mock.patch.object(network_module, "deliver", judging):
        yield entries, judged


def in_flight_after(entries, start: float, wide: bool = True):
    """The first entry routed after ``start`` with two receivers or more
    (any with ``wide=False``), and an instant while it is in flight."""
    for routed, when, receivers, sender in entries:
        if routed > start and when > routed and \
                (len(receivers) > 1 or not wide):
            return (routed + when) / 2, when, receivers, sender
    raise AssertionError(f"no entry in flight after {start}")


def assert_batching_is_invisible(scenario):
    batched = run_scenario(scenario)
    with unbatched():
        plain = run_scenario(scenario)
    assert _without_engine_events(batched) == _without_engine_events(plain)
    return batched


class TestEntrySplitsUnderChurn:
    def test_fixed_and_mobile_receivers_at_one_instant(self, monkeypatch):
        """Equal segments put a mobile sender's fixed and mobile
        receivers two equal hops away: one entry holds both kinds."""
        wired = ScenarioRunner._link

        def equal_segments(self, spec, segment):
            return wired(self, spec, "wired") if segment == "wireless" \
                else wired(self, spec, segment)
        monkeypatch.setattr(ScenarioRunner, "_link", equal_segments)
        scenario = mixed_group()
        with entries_recorded() as (entries, _):
            assert_batching_is_invisible(scenario)
        kinds = [{receiver.split("-")[0] for receiver in receivers}
                 for _, _, receivers, sender in entries
                 if sender.startswith("mobile")]
        assert {"fixed", "mobile"} in kinds

    def test_a_receiver_crashing_while_its_entry_is_in_flight(self):
        with entries_recorded() as (entries, _):
            run_scenario(mixed_group())
        at, when, receivers, _ = in_flight_after(entries, 8.0)
        scenario = mixed_group(events=[Crash(at, receivers[-1])])
        with entries_recorded() as (_, judged):
            assert_batching_is_invisible(scenario)
        assert (when, receivers[-1]) in judged  # judged after its crash

    def test_a_partition_declared_while_an_entry_is_in_flight(self):
        with entries_recorded() as (entries, _):
            run_scenario(mixed_group())
        at, when, receivers, sender = in_flight_after(entries, 8.0)
        cut = tuple(sorted(set(receivers) - {sender}))[-1:]
        rest = tuple(sorted({spec.node_id for spec in mixed_group().nodes}
                            - set(cut)))
        scenario = mixed_group(events=[Partition(at, groups=(rest, cut))])
        with entries_recorded() as (_, judged):
            assert_batching_is_invisible(scenario)
        assert (when, cut[0]) in judged

    def test_a_battery_dying_mid_request(self):
        """``mobile-2`` runs dry at 14 s paying for a beacon to five
        peers: the request leaves with two transmissions, in both
        runs.  (A transmission costs about 0.4 mJ; 91.5 mJ is the middle
        of the batteries that leave exactly two.)"""
        cut_short = []
        charge = network_module.charge

        def recording(sender, packet, now, times=1):
            sent = charge(sender, packet, now, times)
            if 0 < sent < times:
                cut_short.append((now, sender.node_id))
            return sent

        with mock.patch.object(network_module, "charge", recording):
            result = assert_batching_is_invisible(
                mixed_group(battery_mj=91.5))
        assert cut_short == [(14.0, "mobile-2")] * 2
        assert result.stats["mobile-2"]["dropped"] > 0

    def test_a_deadline_at_an_entrys_instant(self):
        """The horizon is exactly an entry's instant: ``run_until`` is
        inclusive, so both runs deliver it whole."""
        with entries_recorded() as (entries, _):
            run_scenario(mixed_group())
        _, when, receivers, _ = in_flight_after(entries, 20.0)
        with entries_recorded() as (_, judged):
            assert_batching_is_invisible(mixed_group(duration_s=when))
        assert all((when, receiver) in judged for receiver in receivers)
