"""One group send, one transmission request: ``EachOf`` below the kernel queue.

Contracts under test:

* **the network's expansion is the sequence of unicasts** — one
  ``EachOf(members)`` transmit leaves the simulator in the state the
  reference expansion ``for m in members: transmit(unicast(packet, m))``
  (written out *here*, the semantics before fan-out moved into the
  network) leaves it in: every counter, loss draw, reserved sequence
  number, battery level and delivery, in order, and every event the
  receivers' transport sessions build from what arrives;
* **a group send crosses the transport once** — a real beb and a real
  Mecho group send run ``DatagramTransportSession.handle`` and
  ``Message.wire_copy`` once (twice via the relay) for 4 members and for
  16, and receivers cannot tell: ``dest`` is their own id;
* **``dest`` is opaque below the fan-out layer** — a layer under ``beb``
  sees the one ``EachOf`` event once, and every member receives it;
* **one request is one live frame** — every datagram of one ``EachOf``
  request is the same bytes, ``encode_frame(packet)``, encoded once, and
  the live network leaves the same datagrams, losses and sender counters
  as the unicast sequence; a loss swap between two requests is seen by
  the second, on both backends.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.ministacks import build_ministack
from repro.kernel import (Direction, EachOf, Event, Layer, Message,
                          SendableEvent, Session)
from repro.kernel.packet import CONTROL, DATA, Packet
from repro.kernel.transport import DatagramTransportSession
from repro.livenet import network as live_network
from repro.livenet.frame import decode_frame, encode_frame
from repro.protocols import BestEffortMulticastLayer
from repro.simnet import BernoulliLoss, LinkParams, Network, SimEngine
from repro.simnet.energy import Battery
from repro.simnet.node import NodeKind
from tests.kernel.test_wire_cells import mecho_world
from tests.livenet.helpers import offline_live_network
from tests.protocols.helpers import build_world, collector_of
from tests.simnet.test_batching import FAN_OUT_CASES, run_fan_out_case
from tests.simnet.test_transport import build_node_stack
from tests.simnet.unbatched import unbatched

PORT = "p"


def request(sender: str, members, size: int = 100,
            traffic_class: str = DATA) -> Packet:
    """The one packet a transport session builds for a fan-out send."""
    return Packet(src=sender, dst=EachOf(tuple(members)), port=PORT,
                  event_cls=SendableEvent,
                  message=Message(payload="x" * size).wire_copy(),
                  traffic_class=traffic_class)


def unicast(packet: Packet, member: str) -> Packet:
    """The unicast to ``member`` of the sequence ``packet`` stands for:
    its own record and its own handle onto the frozen message."""
    return replace(packet, dst=member, message=packet.message.copy())


def transmit(network, sender: str, packet: Packet, expanded: bool) -> None:
    """``packet`` as one request, or as the unicast sequence it stands for."""
    node = network.node(sender)
    if expanded:
        for member in packet.dst.members:
            network.transmit(node, unicast(packet, member))
    else:
        network.transmit(node, packet)


def attach_stack(network, node_id: str, arrivals: list):
    """A transport session and an app on ``node_id``'s :data:`PORT`;
    ``arrivals`` records each packet at the NIC, before the session.
    Returns the app session, whose ``received`` are the events the
    transport built."""
    app = build_node_stack(network, node_id, PORT).sessions[1]
    node = network.node(node_id)
    incoming = node._ports[PORT]

    def arrive(packet):
        arrivals.append((network.engine.now(), node_id, packet.src,
                         packet.sent_at, packet.size_bytes))
        incoming(packet)
    node._ports[PORT] = arrive
    return app


def events_of(app) -> list:
    """What the app saw: each event's class, source, destination and
    payload, and whether it holds a handle of its own."""
    return [(type(event), event.source, event.dest, event.message.payload,
             event.message.headers) for event in app.received]


# -- the network's expansion is the sequence of unicasts -----------------------

@dataclass(frozen=True)
class World:
    kinds: dict
    wired_loss: float
    wireless_loss: float
    per_sender_streams: bool
    seed: int
    partition: object
    crashed: frozenset
    per_packet: bool
    requests: tuple


@st.composite
def worlds(draw) -> World:
    kinds = draw(st.lists(st.sampled_from(list(NodeKind)),
                          min_size=2, max_size=7))
    ids = [f"n{index}" for index in range(len(kinds))]
    a_node = st.sampled_from(ids)
    sends = st.tuples(
        a_node,
        st.lists(st.sampled_from(ids + ["ghost"]), unique=True, max_size=8),
        st.integers(0, 600), st.sampled_from([DATA, CONTROL]))
    return World(
        kinds=dict(zip(ids, kinds)),
        wired_loss=draw(st.sampled_from([0.0, 0.25])),
        wireless_loss=draw(st.sampled_from([0.0, 0.35])),
        per_sender_streams=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 16)),
        # One side of the split; a node drawn into neither side is isolated.
        partition=draw(st.none() | st.tuples(st.frozensets(a_node),
                                             st.frozensets(a_node))),
        crashed=draw(st.frozensets(a_node, max_size=2)),
        per_packet=draw(st.booleans()),
        requests=tuple(draw(st.lists(sends, min_size=1, max_size=4))))


def loss(probability: float, world: World, label: str):
    if not probability:
        return None
    base = f"{label}:{world.seed}" if world.per_sender_streams else None
    return BernoulliLoss(probability, random.Random(f"{label}{world.seed}"),
                         seed_base=base)


def link(latency_s: float, bandwidth_bps: float, model) -> LinkParams:
    params = LinkParams(latency_s=latency_s, bandwidth_bps=bandwidth_bps)
    if model is not None:
        params.loss = model
    return params


def run_world(world: World, expanded: bool) -> dict:
    """Everything observable after the world's requests went out."""
    engine = SimEngine()
    with unbatched() if world.per_packet else nullcontext():
        network = Network(
            engine,
            wired=link(0.0005, 100e6,
                       loss(world.wired_loss, world, "wired")),
            wireless=link(0.002, 11e6,
                          loss(world.wireless_loss, world, "wireless")))
    received = []
    apps = {}
    for node_id, kind in world.kinds.items():
        network.add_node(node_id, kind)
        apps[node_id] = attach_stack(network, node_id, received)
    if world.partition is not None:
        left, right = world.partition
        network.partition(left, right - left)
    for node_id in world.crashed:
        network.crash_node(node_id)
    for sender, members, size, traffic_class in world.requests:
        transmit(network, sender,
                 request(sender, members, size, traffic_class), expanded)
    # Each instant's receivers, in order; one seq reserved per receiver.
    in_flight = [(when, dst.node_id) for when, _, dsts, _ in
                 sorted(network._batcher.pending, key=lambda e: e[:2])
                 for dst in dsts]
    reserved = engine.reserve_seq()
    lost_at_send = network.lost_packets
    engine.run_until(5.0)
    for app in apps.values():  # each event owns its message handle
        for event in app.received:
            event.message.push_header("mine")
    return {
        "in_flight": in_flight, "reserved": reserved,
        "lost_at_send": lost_at_send, "received": received,
        "events": {node_id: events_of(app) for node_id, app in apps.items()},
        "lost": network.lost_packets,
        "delivered": network.delivered_packets,
        "fired": engine.fired_count,
        "stats": {node_id: network.stats_of(node_id)
                  for node_id in world.kinds},
        "batteries": {node_id: network.node(node_id).battery
                      for node_id in world.kinds}}


class TestExpansionIsTheUnicastSequence:
    @given(world=worlds())
    @settings(max_examples=300, deadline=None)
    def test_one_request_equals_the_reference_expansion(self, world):
        assert run_world(world, expanded=False) == \
            run_world(world, expanded=True)

    @pytest.mark.parametrize("survives", [0, 1, 3, 5])
    def test_battery_dying_mid_request_drops_the_rest(self, survives):
        members = [f"fixed-{index}" for index in range(5)]
        packet = request("mobile", members)
        cost = Battery().params.tx_per_packet_mj + \
            Battery().params.tx_per_byte_mj * packet.size_bytes
        outcomes = []
        for expanded in (False, True):
            engine = SimEngine()
            network = Network(engine)
            # Charge for ``survives`` transmissions less a sliver: the
            # last one that starts is the one that empties the battery.
            sender = network.add_mobile_node(
                "mobile", battery=Battery(
                    capacity_mj=max(survives - 0.5, 0.0) * cost))
            apps = []
            for member in members:
                network.add_fixed_node(member)
                apps.append(attach_stack(network, member, []))
            transmit(network, "mobile", request("mobile", members), expanded)
            engine.run_until(1.0)
            heard = [event.dest for app in apps for event in app.received]
            assert sender.stats.sent_total == survives
            assert sender.stats.dropped_packets == len(members) - survives
            assert heard == members[:survives]
            assert not sender.alive
            outcomes.append((sender.stats, sender.battery, heard,
                             network.lost_packets))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("per_packet", [False, True])
    @pytest.mark.parametrize("case", FAN_OUT_CASES)
    def test_entry_splits_equal_the_unicasts(self, case, per_packet):
        """Fixed and mobile receivers at one instant, a crash, a
        partition or a dead battery between the receivers of one entry,
        a sender's battery dying mid-request, a ``run_until`` deadline
        at the entry's instant: one request leaves every observation the
        unicasts leave."""
        with unbatched() if per_packet else nullcontext():
            one = run_fan_out_case(case)
            unicasts = run_fan_out_case(case, expanded=True)
        assert one["steps"] == unicasts["steps"]

    def test_each_of_is_n_transmissions_and_a_tuple_is_one(self):
        """Figure-3 accounting: ``sent_total`` counts what left the NIC."""
        engine = SimEngine()
        network = Network(engine, native_multicast_wired=True)
        for node_id in ("a", "b", "c", "d"):
            network.add_fixed_node(node_id).bind_port(PORT, lambda _: None)
        network.transmit(network.node("a"), request("a", ("b", "c", "d")))
        assert network.stats_of("a").sent_total == 3
        native = request("a", ())
        native.dst = ("a", "b", "c", "d")
        network.transmit(network.node("a"), native)
        assert network.stats_of("a").sent_total == 4
        engine.run_until(1.0)
        assert network.delivered_packets == 6

    def test_repr_stays_compact(self):
        assert repr(EachOf(("a", "b"))) == "EachOf(a,b)"
        wide = EachOf(tuple(f"n{index}" for index in range(31)))
        assert repr(wide) == "EachOf(n0,n1,n2,+28)"
        assert wide == EachOf(wide.members) and wide != wide.members


# -- a group send crosses the transport once -----------------------------------

def beb_world(members: int):
    """Two wired nodes and ``members - 2`` mobiles on plain beb, background
    traffic parked far beyond the observed window."""
    specs = {"fixed-0": "fixed", "fixed-1": "fixed"}
    for index in range(members - 2):
        specs[f"mobile-{index:02d}"] = "mobile"
    return build_world(specs, heartbeat_interval=600.0, nack_interval=600.0)


def transport_work_for_one_send(world, members: int, sender: str,
                                monkeypatch) -> tuple[int, int]:
    """``(transport handle calls, wire_copy calls)`` one group send from
    ``sender`` costs the whole group, through the real stacks."""
    engine, network, channels = world(members)
    engine.run_until(1.0)
    network.reset_stats()
    calls = {"handle": 0, "wire_copy": 0}

    def counting(name, original):
        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)
        return counted

    with monkeypatch.context() as patch:
        patch.setattr(DatagramTransportSession, "handle", counting(
            "handle", DatagramTransportSession.handle))
        patch.setattr(Message, "wire_copy",
                      counting("wire_copy", Message.wire_copy))
        collector_of(channels[sender]).send_text("hello")
        engine.run_until(2.0)
    for node_id, channel in channels.items():
        (event,) = collector_of(channel).delivered
        assert event.message.payload == "hello"
        assert event.dest == node_id
        assert event.source == sender
    assert sum(network.stats_of(node_id).sent_total
               for node_id in channels) == members - 1
    return calls["handle"], calls["wire_copy"]


class TestGroupSendCrossesTheTransportOnce:
    @pytest.mark.parametrize("members", [4, 16])
    def test_beb(self, members, monkeypatch):
        assert transport_work_for_one_send(
            beb_world, members, "fixed-1", monkeypatch) == (1, 1)

    @pytest.mark.parametrize("members", [4, 16])
    @pytest.mark.parametrize("sender, crossings",
                             [("fixed-1", 1), ("mobile-00", 2)])
    def test_mecho(self, members, sender, crossings, monkeypatch):
        # A mobile's send is one unicast to the relay plus the relay's
        # one fan-out request.
        assert transport_work_for_one_send(
            mecho_world, members, sender, monkeypatch) == \
            (crossings, crossings)


# -- dest is opaque below the fan-out layer ------------------------------------

class PassThroughSession(Session):
    """Records the ``dest`` of every event going down, and passes it on."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.dests: list = []

    def handle(self, event: Event) -> None:
        if event.direction is Direction.DOWN:
            self.dests.append(event.dest)
        event.go()


class PassThroughLayer(Layer):
    accepted_events = (SendableEvent,)
    session_class = PassThroughSession


class TestPassThroughUnderBeb:
    def test_group_send_passes_once_and_reaches_everyone(self):
        members = ("a", "b", "c", "d")
        engine = SimEngine()
        network = Network(engine)
        for node_id in members:
            network.add_fixed_node(node_id)
        probes = {node_id: build_ministack(
            network, node_id, members,
            [PassThroughLayer(),
             BestEffortMulticastLayer(members=",".join(members))])
            for node_id in members}
        network.reset_stats()
        big = "y" * 1000
        probes["a"].send(big)
        engine.run_until(1.0)
        for node_id in members:
            assert probes[node_id].payloads() == [big], node_id
        for node_id in members[1:]:
            assert probes[node_id].deliveries[0].source == "a"
        # One event reached the layer under beb, addressed to the others ...
        below = network.node("a").kernel.find_channel("data") \
            .session_named("pass_through")
        assert below.dests == [EachOf(members[1:])]
        # ... and the network sent one packet to each of them.
        assert network.stats_of("a").sent_total == 3


# -- one request is one live frame ------------------------------------------

def live_world(impaired: bool):
    """Two wired and four mobile nodes behind a lossy wireless hop, the
    last mobile cut off by a partition."""
    kinds = {"fixed-0": NodeKind.FIXED, "fixed-1": NodeKind.FIXED,
             "mobile-0": NodeKind.MOBILE, "mobile-1": NodeKind.MOBILE,
             "mobile-2": NodeKind.MOBILE, "mobile-3": NodeKind.MOBILE}
    wireless = LinkParams(latency_s=0.002, bandwidth_bps=11e6,
                          loss=BernoulliLoss(0.3, random.Random(5)))
    network, source, sent = offline_live_network(
        kinds, wireless=wireless, impaired=impaired)
    network.partition(set(kinds) - {"mobile-3"}, {"mobile-3"})
    return network, source, sent


class TestLiveFrames:
    @pytest.mark.parametrize("impaired", [False, True])
    def test_one_request_is_one_frame(self, impaired, monkeypatch):
        members = ("fixed-1", "mobile-0", "ghost", "mobile-1", "mobile-2",
                   "mobile-3")
        runs = []
        for expanded in (False, True):
            network, source, sent = live_world(impaired)
            frames = []
            original = live_network.encode_frame

            def counted(packet):
                frames.append(packet)
                return original(packet)

            packet = request("fixed-0", members, size=300)
            with monkeypatch.context() as patch:
                patch.setattr(live_network, "encode_frame", counted)
                transmit(network, "fixed-0", packet, expanded)
            source.advance(1.0)
            network.engine.poll()
            # Every datagram of the request is the one frame, decoded at
            # each receiver for that receiver.
            assert {data for _, _, data in sent} == {encode_frame(packet)}
            for _, address, data in sent:
                member = next(m for m in members if m != "ghost" and
                              network.address_of(m) == address)
                arrived = decode_frame(data, member)
                assert arrived.dst == member and arrived.src == "fixed-0"
                assert arrived.message == packet.message
                assert arrived.size_bytes == packet.size_bytes
            runs.append((sent, network.lost_packets,
                         network.stats_of("fixed-0")))
            # The frame is encoded once per request, not once per datagram.
            framed = len(members) - 2  # all but the ghost and the cut-off
            assert len(frames) == (framed if expanded else 1)
            assert network.lost_packets >= 2
            assert sent and network.lost_packets + len(sent) == \
                len(members)
        assert runs[0] == runs[1]

    def test_a_loss_swap_between_requests_draws_from_the_new_model(self):
        """``_hop_plan`` resolves its draw streams once per key, and the
        key holds the loss models: after ``set_wireless_loss`` the next
        request draws from the new model's stream, on the live network as
        on the simulator."""
        kinds = {"fixed-0": NodeKind.FIXED, "mobile-0": NodeKind.MOBILE,
                 "mobile-1": NodeKind.MOBILE, "mobile-2": NodeKind.MOBILE}
        members = ("mobile-0", "mobile-1", "mobile-2")

        def lossy(probability: float, label: str) -> BernoulliLoss:
            return BernoulliLoss(probability, random.Random(label),
                                 seed_base=label)

        def schedule(network, deliver_all) -> list:
            """Requests from one sender around two swaps; the packets
            each request lost."""
            lost = []
            for probability, requests in ((0.0, 2), (1.0, 2), (0.5, 8)):
                network.set_wireless_loss(
                    lossy(probability, f"p{probability}"))
                for _ in range(requests):
                    before = network.lost_packets
                    network.transmit(network.node("fixed-0"),
                                     request("fixed-0", members, size=100))
                    deliver_all()
                    lost.append(network.lost_packets - before)
            return lost

        live, source, sent = offline_live_network(kinds)

        def drain_live():
            source.advance(1.0)
            live.engine.poll()

        live_lost = schedule(live, drain_live)
        engine = SimEngine()
        sim = Network(engine)
        for node_id, kind in kinds.items():
            sim.add_node(node_id, kind)
        sim_lost = schedule(sim, lambda: engine.run_until(engine.now() + 1.0))
        assert live_lost == sim_lost
        # Nothing is lost before the first swap, everything after it, and
        # a share after the second.
        assert live_lost[:4] == [0, 0, len(members), len(members)]
        assert 0 < sum(live_lost[4:]) < 8 * len(members)
        assert len(sent) == sim.delivered_packets == \
            12 * len(members) - sum(live_lost)
