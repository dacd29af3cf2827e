"""One receive path, one send accounting: ``deliver`` and ``charge``.

Contracts under test:

* **``deliver`` is the receive path the simulator always had** — against
  the semantics of the ``Network._deliver`` + ``SimNode._on_packet`` pair
  it replaced, written out *here*: every :class:`NodeStats` counter,
  ``lost_packets``, ``delivered_packets``, the battery and the receiver
  calls are equal on hypothesis-drawn receivers — fixed or mobile,
  crashed, battery-dead (and battery-dead but docked on the wire),
  partitioned away mid-flight, with the port unbound;
* **the live backend runs the same path** — the same cases through
  ``LiveNetwork._on_datagram`` fed ``encode_frame(packet)`` bytes, no
  socket and no wall clock, so the default selection executes the live
  receive path; a garbage datagram is one ``decode_errors``;
* **``charge`` records a request at once where nothing can change between
  its transmissions** and still stops a battery at the transmission that
  empties it.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Message, SendableEvent
from repro.kernel.packet import CONTROL, DATA, Packet
from repro.livenet.frame import encode_frame
from repro.simnet import Network, SimEngine
from repro.simnet.energy import Battery
from repro.simnet.network import charge, deliver
from repro.simnet.node import NodeKind
from tests.livenet.helpers import offline_live_network

PORT = "p"
#: The fixed part of one reception's cost (the per-byte part rides on top,
#: so a battery sized in these pays for at most that many receptions).
RX_COST = Battery().params.rx_per_packet_mj


def reference_deliver(network, node, packet: Packet) -> None:
    """``Network._deliver`` then ``SimNode._on_packet``, as they were."""
    if not node.alive or not network.reachable(packet.src, node.node_id):
        network.lost_packets += 1
        node.stats.record_dropped()
        return
    network.delivered_packets += 1
    node.stats.record_received(packet)
    if node.is_mobile and node.battery is not None:
        node.battery.consume_rx(packet.size_bytes, network.engine.now())
    receiver = node._ports.get(packet.port)
    if receiver is None:
        node.stats.record_dropped()
        return
    receiver(packet)


@dataclass(frozen=True)
class Case:
    kind: NodeKind
    battery_receptions: object  # None: full; else at most this many
    docked: bool                # handed off to the wire, battery kept
    crashed: bool
    partition: str              # none | together | apart | sender_nowhere
    bound: bool
    packets: tuple              # of (payload size, traffic class)


cases = st.builds(
    Case, kind=st.sampled_from(list(NodeKind)),
    battery_receptions=st.none() | st.integers(0, 3),
    docked=st.booleans(), crashed=st.booleans(),
    partition=st.sampled_from(["none", "together", "apart",
                               "sender_nowhere"]),
    bound=st.booleans(),
    packets=st.lists(st.tuples(st.integers(0, 300),
                               st.sampled_from([DATA, CONTROL])),
                     min_size=1, max_size=5).map(tuple))


def arrange(network, case: Case, heard: list):
    """Put receiver ``rx`` of ``network`` in the state ``case`` names."""
    node = network.node("rx")
    if case.battery_receptions is not None and node.battery is not None:
        # Half a reception short: the last one it starts empties it, so
        # it dies *between* two packets of the case (0: dead on arrival).
        capacity = max(case.battery_receptions - 0.5, 0.0) * RX_COST
        node.battery = Battery(capacity_mj=capacity)
    if case.docked:
        network.move_node("rx", NodeKind.FIXED)
    if case.crashed:
        network.crash_node("rx")
    if case.partition == "together":
        network.partition({"tx", "rx"}, {"other"})
    elif case.partition == "apart":
        network.partition({"tx", "other"}, {"rx"})
    elif case.partition == "sender_nowhere":
        network.partition({"rx", "other"})
    if case.bound:
        node.bind_port(PORT, lambda packet: heard.append(
            (packet.src, packet.dst, packet.size_bytes,
             packet.traffic_class, packet.message.payload)))
    return node


def packets_of(case: Case) -> list[Packet]:
    return [Packet(src="tx", dst="rx", port=PORT, event_cls=SendableEvent,
                   message=Message(payload="x" * size).wire_copy(),
                   traffic_class=traffic_class)
            for size, traffic_class in case.packets]


def observed(network, heard: list) -> dict:
    node = network.nodes["rx"]
    return {"stats": node.stats, "battery": node.battery, "heard": heard,
            "lost": network.lost_packets,
            "delivered": network.delivered_packets}


def sim_outcome(case: Case, receive) -> dict:
    network = Network(SimEngine())
    network.add_node("rx", case.kind)
    network.add_fixed_node("tx")
    network.add_fixed_node("other")
    heard: list = []
    node = arrange(network, case, heard)
    for packet in packets_of(case):
        receive(network, node, packet)
    return observed(network, heard)


def live_outcome(case: Case) -> dict:
    network, _, _ = offline_live_network(
        {"rx": case.kind, "tx": NodeKind.FIXED, "other": NodeKind.FIXED})
    heard: list = []
    arrange(network, case, heard)
    for packet in packets_of(case):
        network._on_datagram("rx", encode_frame(packet), ("127.0.0.1", 1))
    assert network.decode_errors == 0
    return observed(network, heard)


class TestDeliver:
    @given(case=cases)
    @settings(max_examples=300, deadline=None)
    def test_deliver_is_the_receive_path_it_replaced(self, case):
        assert sim_outcome(case, deliver) == \
            sim_outcome(case, reference_deliver)

    @given(case=cases)
    @settings(max_examples=150, deadline=None)
    def test_the_live_backend_runs_the_same_path(self, case):
        assert live_outcome(case) == sim_outcome(case, reference_deliver)

    def test_the_cases_reach_every_outcome(self):
        """Deliveries, mid-flight losses, a battery dying between two
        packets and unbound-port drops all occur, so the properties
        above are not comparing empty histories."""
        two = ((10, DATA), (10, CONTROL))
        healthy = Case(NodeKind.MOBILE, None, False, False, "together",
                       True, two)
        outcome = sim_outcome(healthy, deliver)
        assert outcome["delivered"] == 2 and len(outcome["heard"]) == 2
        assert outcome["battery"].rx_count == 2

        dies = Case(NodeKind.MOBILE, 1, False, False, "none", True, two)
        outcome = sim_outcome(dies, deliver)
        assert (outcome["delivered"], outcome["lost"]) == (1, 1)
        assert outcome["stats"].dropped_packets == 1
        assert not outcome["battery"].alive

        docked = Case(NodeKind.MOBILE, 0, True, False, "none", True, two)
        outcome = sim_outcome(docked, deliver)
        assert outcome["delivered"] == 2  # mains power: the battery idles
        assert outcome["battery"].rx_count == 0

        for gone in (Case(NodeKind.FIXED, None, False, True, "none", True,
                          two),
                     Case(NodeKind.FIXED, None, False, False, "apart", True,
                          two),
                     Case(NodeKind.FIXED, None, False, False,
                          "sender_nowhere", True, two)):
            outcome = sim_outcome(gone, deliver)
            assert (outcome["delivered"], outcome["lost"]) == (0, 2)
            assert outcome["stats"].dropped_packets == 2
            assert outcome["stats"].recv_total == 0

        unbound = Case(NodeKind.FIXED, None, False, False, "none", False,
                       two)
        outcome = sim_outcome(unbound, deliver)
        assert (outcome["delivered"], outcome["lost"]) == (2, 0)
        assert outcome["stats"].recv_total == 2
        assert outcome["stats"].dropped_packets == 2

    def test_a_garbage_datagram_is_one_decode_error(self):
        network, _, _ = offline_live_network({"rx": NodeKind.FIXED})
        heard: list = []
        network.node("rx").bind_port(PORT, heard.append)
        network._on_datagram("rx", b"\x00not a frame", ("127.0.0.1", 1))
        assert network.decode_errors == 1
        assert (network.lost_packets, network.delivered_packets) == (0, 0)
        assert network.stats_of("rx").recv_total == 0
        assert network.stats_of("rx").dropped_packets == 0
        assert heard == []

    def test_a_frame_for_a_departed_node_is_a_network_loss(self):
        network, _, _ = offline_live_network(
            {"rx": NodeKind.FIXED, "tx": NodeKind.FIXED})
        frame = encode_frame(packets_of(
            Case(NodeKind.FIXED, None, False, False, "none", True,
                 ((10, DATA),)))[0])
        network.remove_node("rx")
        network._on_datagram("rx", frame, ("127.0.0.1", 1))
        assert network.lost_packets == 1
        assert network.stats_of("rx").dropped_packets == 0


class TestCharge:
    def request(self) -> Packet:
        return packets_of(Case(NodeKind.FIXED, None, False, False, "none",
                               True, ((100, DATA),)))[0]

    def test_a_crashed_fixed_sender_drops_the_whole_request(self):
        network = Network(SimEngine())
        sender = network.add_fixed_node("tx")
        network.crash_node("tx")
        assert charge(sender, self.request(), now=0.0, times=5) == 0
        assert sender.stats.dropped_packets == 5
        assert sender.stats.sent_total == 0
        assert not sender.stats.sent_by_event

    def test_a_sender_nothing_drains_is_recorded_at_once(self):
        network = Network(SimEngine())
        fixed = network.add_fixed_node("tx")
        docked = network.add_mobile_node("was-mobile",
                                         battery=Battery(capacity_mj=0.0))
        network.move_node("was-mobile", NodeKind.FIXED)
        for sender in (fixed, docked):
            packet = self.request()
            assert charge(sender, packet, now=2.5, times=4) == 4
            assert packet.sent_at == 2.5
            assert sender.stats.sent_total == 4
            assert sender.stats.sent_wire_bytes_total == \
                4 * packet.size_bytes
            assert sender.stats.sent_by_event == {"SendableEvent": 4}
            assert sender.stats.dropped_packets == 0
        assert docked.battery.tx_count == 0

    def test_an_empty_request_leaves_no_trace(self):
        sender = Network(SimEngine()).add_fixed_node("tx")
        assert charge(sender, self.request(), now=0.0, times=0) == 0
        assert not sender.stats.sent_packets
        assert not sender.stats.sent_by_event
        assert sender.stats.snapshot()["sent_by_event"] == {}

    def test_a_mobile_sender_is_still_charged_per_transmission(self):
        network = Network(SimEngine())
        packet = self.request()
        params = Battery().params
        cost = params.tx_per_packet_mj + \
            params.tx_per_byte_mj * packet.size_bytes
        sender = network.add_mobile_node(
            "tx", battery=Battery(capacity_mj=2.5 * cost))
        assert charge(sender, packet, now=0.0, times=5) == 3
        assert sender.stats.sent_total == 3
        assert sender.stats.dropped_packets == 2
        assert sender.battery.tx_count == 3 and not sender.battery.alive
