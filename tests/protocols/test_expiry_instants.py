"""The virtual instant of every suspicion, pinned.

The heartbeat detector's expiry tick skips its scan while no member can
have expired (``HeartbeatSession._oldest``).  That bound must never delay
a suspicion: each case below pins the instant of every
:class:`SuspectEvent` the live detectors raise — for a crashed wired
member, a crashed wireless member and a crashed coordinator, and after a
path reset, an unsuspect and a re-admission (the paths that move a window
or add a candidate) — to the instants a full scan on every tick gives.
"""

from __future__ import annotations

from repro.protocols import MechoLayer
from repro.protocols.events import PathChangedEvent, SuspectEvent
from repro.simnet import Network, SimEngine
from tests.protocols.helpers import build_world
from tests.protocols.test_heartbeat import build_fd_stack, build_fd_world
from tests.protocols.test_supervision import suite_world


def record_suspicions(engine, channels, crashed: str) -> list:
    """``(instant, node, suspect)`` of every suspicion raised on
    ``channels`` (``node -> channel``) but ``crashed``'s, in order."""
    raised = []
    for node_id, channel in channels.items():
        if node_id == crashed:
            continue
        heartbeat = channel.session_named("heartbeat")

        def send_up(event, *args, node_id=node_id,
                    original=heartbeat.send_up, **kwargs):
            if isinstance(event, SuspectEvent):
                raised.append((round(engine.now(), 6), node_id,
                               event.member))
            return original(event, *args, **kwargs)
        heartbeat.send_up = send_up
    return raised


def hybrid_fd_world():
    """One fixed relay and three mobiles on Mecho, detectors only."""
    engine = SimEngine()
    network = Network(engine)
    members = ("f0", "m1", "m2", "m3")
    network.add_fixed_node("f0")
    for node_id in members[1:]:
        network.add_mobile_node(node_id)
    channels = {}
    for node_id in members:
        mode = "wired" if node_id == "f0" else "wireless"
        channels[node_id] = build_fd_stack(
            network, node_id, members,
            dissemination=MechoLayer(mode=mode, relay="f0",
                                     members=",".join(members)))
    return engine, network, channels


def view_of(channel):
    return channel.session_named("membership").view.members


class TestCrashes:
    def test_crashed_wired_member(self):
        engine, network, channels = build_fd_world()
        raised = record_suspicions(engine, channels, "c")
        engine.run_until(1.2)
        network.crash_node("c")
        engine.run_until(10.0)
        # Silent since its last beacon at 1.0: past the 3 s timeout at
        # the 4.5 s tick.
        assert raised == [(4.5, "a", "c"), (4.5, "b", "c")]

    def test_crashed_wireless_member(self):
        engine, network, channels = hybrid_fd_world()
        raised = record_suspicions(engine, channels, "m2")
        engine.run_until(1.2)
        network.crash_node("m2")
        engine.run_until(10.0)
        assert raised == [(4.5, "f0", "m2"), (4.5, "m1", "m2"),
                          (4.5, "m3", "m2")]

    def test_crashed_coordinator(self):
        engine, network, channels = build_world(
            {"a": "fixed", "b": "fixed", "c": "mobile", "d": "fixed"})
        raised = record_suspicions(engine, channels, "a")
        engine.run_until(1.2)
        network.crash_node("a")  # the lowest id coordinates
        engine.run_until(12.0)
        assert raised == [(4.5, "b", "a"), (4.5, "c", "a"), (4.5, "d", "a")]
        for node_id in ("b", "c", "d"):
            assert view_of(channels[node_id]) == ("b", "c", "d")


class TestPathsThatMoveTheBound:
    def test_after_a_path_reset(self):
        """A reset at 3.8 s restarts ``a``'s window on ``c``: ``a``
        suspects it 3 s later, ``b`` (no reset) on time."""
        engine, network, channels = build_fd_world()
        raised = record_suspicions(engine, channels, "c")
        engine.run_until(1.2)
        network.crash_node("c")

        def path_changed():
            event = PathChangedEvent()
            event.channel = channels["a"]
            channels["a"].session_named("heartbeat").on_event(event)
        engine.call_at(3.8, path_changed)
        engine.run_until(10.0)
        assert raised == [(4.5, "b", "c"), (7.0, "a", "c")]

    def test_after_an_unsuspect(self):
        """``a`` suspects its only peer, which leaves no member to scan;
        the peer's beacon unsuspects it, and its crash must still be
        suspected on time."""
        engine, network, channels = build_fd_world(members=("a", "c"))
        raised = record_suspicions(engine, channels, "c")
        node = network.node("a")
        deliver, dropping = node._ports["data"], [True]

        def filtered(packet):
            if not (dropping and packet.logical_src == "c"):
                deliver(packet)
        node._ports["data"] = filtered
        engine.call_at(6.0, dropping.clear)
        engine.call_at(9.0, lambda: network.crash_node("c"))
        engine.run_until(16.0)
        assert raised == [(4.0, "a", "c"), (12.0, "a", "c")]

    def test_after_a_readmission(self):
        """``c`` crashes, is excluded, recovers and is re-admitted; then
        ``b`` crashes, and the re-admitted ``c`` suspects it on time."""
        members = ("a", "b", "c")
        engine, network, both, _ = suite_world(members)
        channels = {node_id: both[node_id]["data"] for node_id in members}
        raised = record_suspicions(engine, channels, "b")
        engine.run_until(1.2)
        network.crash_node("c")
        engine.run_until(10.0)
        network.recover_node("c")
        engine.run_until(14.0)
        assert view_of(channels["c"]) == members
        del raised[:]
        network.crash_node("b")
        engine.run_until(20.0)
        assert raised == [(17.5, "a", "b"), (17.5, "c", "b")]
