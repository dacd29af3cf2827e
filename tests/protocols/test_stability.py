"""The reliable store is bounded in a view that never changes.

Every member reports its delivered vector to the view coordinator after
each ``_STABILITY_REPORT_EVERY`` stored entries; once every member has
reported, the coordinator fans the element-wise minimum out, and every
store drops what the whole view has delivered.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.kernel import Direction
from repro.protocols import (MechoLayer, StabilityMessage,
                             TriggerViewChangeEvent)
from repro.protocols.reliable import _STABILITY_REPORT_EVERY
from tests.protocols.helpers import build_world, collector_of

#: A member's store right after a trim holds the entries delivered since
#: the round's earliest report, so it stays under two reports' worth.
CEILING = 2 * _STABILITY_REPORT_EVERY


def reliable_of(channel):
    return channel.session_named("reliable")


def quiet_view(nodes: int = 8, mecho: bool = False, seed: int = 3):
    """A quiet view: long heartbeats, half fixed and half mobile nodes."""
    specs = {f"n{index:02d}": "fixed" if index < nodes // 2 else "mobile"
             for index in range(nodes)}
    factory = None
    if mecho:
        members = ",".join(sorted(specs))

        def factory(node_id):
            mode = "wired" if specs[node_id] == "fixed" else "wireless"
            return MechoLayer(mode=mode, relay="n00", members=members)

    return build_world(specs, seed=seed, heartbeat_interval=2.0,
                       nack_interval=0.25, dissemination_factory=factory)


def schedule_sends(engine, channels, senders, rate: float, start: float,
                   end: float) -> int:
    """``rate`` messages per second from each of ``senders``."""
    count = int((end - start) * rate)
    for k in range(count):
        for offset, sender in enumerate(senders):
            at = start + k / rate + offset * 1e-3
            engine.call_at(at, lambda s=sender, k=k: collector_of(
                channels[s]).send_text(f"{s}:{k}"))
    return count


def run_sampling(engine, channels, until: float, step: float = 0.1) -> int:
    """Run to ``until``; return the largest store seen on any member."""
    peak = 0
    while engine.now() < until:
        engine.run_until(min(until, engine.now() + step))
        peak = max(peak, max(len(reliable_of(channel).store)
                             for channel in channels.values()))
    return peak


def stability_packets(network) -> int:
    return sum(network.stats_of(node_id).sent_by_event["StabilityMessage"]
               for node_id in network.node_ids())


class TestStoreCeiling:
    @pytest.mark.parametrize("mecho", [False, True], ids=["beb", "mecho"])
    def test_store_stays_under_ceiling(self, mecho):
        engine, network, channels = quiet_view(mecho=mecho)
        engine.run_until(1.0)
        senders = sorted(channels)[::2]
        per_sender = schedule_sends(engine, channels, senders, 40.0, 1.0,
                                    31.0)
        total = per_sender * len(senders)
        assert total > 4 * CEILING  # untrimmed, the store would pass it
        peak = run_sampling(engine, channels, 36.0)
        assert peak < CEILING, f"store peaked at {peak} entries"
        for node_id, channel in channels.items():
            assert len(collector_of(channel).delivered) == total, node_id
        assert stability_packets(network) > 0

    def test_traced_memory_plateaus(self):
        engine, network, channels = quiet_view()
        engine.run_until(1.0)
        senders = sorted(channels)[::2]
        schedule_sends(engine, channels, senders, 40.0, 1.0, 21.0)

        def traced_at(instant: float) -> int:
            engine.run_until(instant)
            for channel in channels.values():
                # The test application keeps every delivery; drop them.
                collector_of(channel).delivered.clear()
                collector_of(channel).timeline.clear()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            engine.run_until(3.0)
            first = traced_at(11.0)
            second = traced_at(21.0)
        finally:
            tracemalloc.stop()
        # 10 s more traffic is 12,800 more deliveries: untrimmed stores
        # grow by about 3 MB over it, trimmed ones by nothing but the
        # phase of the round (a few hundred kB either way).
        assert second - first < 1_000_000, (
            f"traced memory grew {second - first} B in a quiet view")


class TestLoss:
    def test_missing_receiver_holds_stable_back(self):
        engine, network, channels = quiet_view()
        engine.run_until(1.0)
        senders = sorted(channels)[::2]
        per_sender = schedule_sends(engine, channels, senders, 40.0, 1.0,
                                    21.0)
        # Every copy of n00's 10th message that reaches n07 — the
        # original and each retransmission — is lost until t = 12 s,
        # thousands of messages later.
        receiver = reliable_of(channels["n07"])
        ingest = receiver._ingest
        heal_at = 12.0

        def lossy(sender, seqno, snapshot, channel):
            if sender == "n00" and seqno == 10 and engine.now() < heal_at:
                return
            ingest(sender, seqno, snapshot, channel)

        receiver._ingest = lossy
        while engine.now() < heal_at - 0.5:
            engine.run_until(engine.now() + 0.5)
            if engine.now() > 2.0:
                for node_id, channel in channels.items():
                    if node_id != "n07":
                        assert ("n00", 10) in reliable_of(channel).store, \
                            f"{node_id} dropped a message n07 still needs"
        assert receiver.delivered["n00"] == 9
        engine.run_until(26.0)
        total = per_sender * len(senders)
        texts = [event.message.payload
                 for event in collector_of(channels["n07"]).delivered]
        assert len(texts) == total
        assert [t for t in texts if t.startswith("n00:")] == \
            [f"n00:{k}" for k in range(per_sender)]
        # Once repaired, the held-back entries go too.
        for channel in channels.values():
            assert ("n00", 10) not in reliable_of(channel).store
            assert len(reliable_of(channel).store) < CEILING

    @pytest.mark.parametrize("lost", ["report", "stable"])
    def test_lost_round_messages_only_delay_trimming(self, lost):
        engine, network, channels = quiet_view()
        transmit = network.transmit
        lose_until = 10.0

        def lossy(sender, packet):
            if packet.event_cls is StabilityMessage and \
                    engine.now() < lose_until and \
                    (sender.node_id == "n00") == (lost == "stable"):
                return
            transmit(sender, packet)

        network.transmit = lossy
        engine.run_until(1.0)
        senders = sorted(channels)[::2]
        per_sender = schedule_sends(engine, channels, senders, 40.0, 1.0,
                                    21.0)
        stalled = run_sampling(engine, channels, lose_until)
        assert stalled > CEILING, "trimming went on without the round"
        run_sampling(engine, channels, 14.0)
        peak_after = run_sampling(engine, channels, 26.0)
        assert peak_after < CEILING
        total = per_sender * len(senders)
        for node_id, channel in channels.items():
            assert len(collector_of(channel).delivered) == total, node_id


class TestViewChange:
    def test_view_change_resets_the_round(self):
        engine, network, channels = quiet_view()
        held = []
        transmit = network.transmit

        def hold_reports(sender, packet):
            # n07's reports are held back, so the round stays open.
            if packet.event_cls is StabilityMessage and \
                    sender.node_id == "n07":
                held.append((sender, packet))
                return
            transmit(sender, packet)

        network.transmit = hold_reports
        engine.run_until(1.0)
        senders = sorted(channels)[::2]
        schedule_sends(engine, channels, senders, 40.0, 1.0, 5.0)
        engine.run_until(6.0)
        coordinator = reliable_of(channels["n00"])
        assert held and sorted(coordinator._reports) == \
            sorted(channels)[:-1]
        old_epoch = coordinator.epoch
        channels["n00"].insert(TriggerViewChangeEvent(), Direction.DOWN)
        engine.run_until(12.0)
        assert coordinator.epoch != old_epoch
        assert coordinator._reports == {}
        for channel in channels.values():
            session = reliable_of(channel)
            assert session.epoch == coordinator.epoch
            assert session._unreported == 0
            assert session.store == {}
        # n07's report of the old view, arriving now, is ignored.
        network.transmit = transmit
        transmit(*held[0])
        engine.run_until(12.5)
        assert coordinator._reports == {}


@pytest.mark.slow
def test_spine_sized_flood_is_bounded():
    """16 nodes, 8 senders at 40 msg/s for 60 virtual s over Mecho."""
    engine, network, channels = quiet_view(nodes=16, mecho=True)
    engine.run_until(1.0)
    senders = sorted(channels)[::2]
    per_sender = schedule_sends(engine, channels, senders, 40.0, 1.0, 61.0)
    peak = run_sampling(engine, channels, 66.0, step=0.5)
    assert peak < CEILING
    total = per_sender * len(senders)
    for node_id, channel in channels.items():
        assert len(collector_of(channel).delivered) == total, node_id
    packets = network.total_stats()["sent_total"]
    assert stability_packets(network) <= 0.01 * packets
