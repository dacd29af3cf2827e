#!/usr/bin/env python3
"""Multi-room chat with a shared causal session across channels.

Two Appia features from the paper's §3.1 in one example:

* *"Each group of users, defined from their interests, is supported by a
  different multicast group"* (§4) — here the rooms ``sports`` and ``news``
  are two independent channels multiplexed over one transport session;
* *"Two channels that share a given layer may share the same session [...]
  if two different channels share a session of a causal order protocol,
  messages exchanged by these channels are ordered among each other"* —
  the causal session is shared, so a reply posted in ``news`` can never be
  delivered before the ``sports`` message that caused it, at any node.

Run with: ``python examples/multi_room_chat.py``
"""

from repro.apps.chat import ChatAppLayer, ChatSession
from repro.kernel import QoS
from repro.protocols import (BestEffortMulticastLayer, CausalOrderLayer,
                             HeartbeatLayer, MembershipLayer,
                             ReliableMulticastLayer, ViewSyncLayer)
from repro.simnet import (DatagramTransportSession, Network, SimEngine,
                          SimTransportLayer)

MEMBERS = ("alice", "bob", "carol")
ROOMS = ("news", "sports")


def build_node(network, node_id):
    """Two room channels; shared transport AND shared causal session."""
    node = network.node(node_id)
    members_csv = ",".join(MEMBERS)
    transport_layer = SimTransportLayer()
    transport_session = DatagramTransportSession(transport_layer, node=node)
    causal_layer = CausalOrderLayer()
    causal_session = causal_layer.create_session()
    rooms = {}
    for room in ROOMS:
        qos = QoS(f"{room}-qos", [
            transport_layer,
            BestEffortMulticastLayer(members=members_csv),
            ReliableMulticastLayer(members=members_csv),
            HeartbeatLayer(members=members_csv, interval=5.0),
            MembershipLayer(members=members_csv),
            ViewSyncLayer(),
            causal_layer,
            ChatAppLayer(room=room),
        ])
        channel = qos.create_channel(room, node.kernel, preset_sessions={
            0: transport_session, 6: causal_session})
        channel.start()
        rooms[room] = channel.sessions[-1]
    return rooms


def main() -> None:
    engine = SimEngine()
    network = Network(engine)
    for node_id in MEMBERS:
        network.add_fixed_node(node_id)
    users = {node_id: build_node(network, node_id) for node_id in MEMBERS}
    engine.run_until(1.0)  # initial views install

    transcript: dict[str, list[tuple[str, str, str]]] = {
        node_id: [] for node_id in MEMBERS}
    for node_id, rooms in users.items():
        for room, session in rooms.items():
            session.on_message = (
                lambda d, n=node_id: transcript[n].append(
                    (d.room, d.source, d.text)))

    # Alice announces in sports; when Bob sees it he reacts in NEWS.
    bob_sports: ChatSession = users["bob"]["sports"]
    bob_news: ChatSession = users["bob"]["news"]
    bob_sports.on_message = lambda delivery: (
        transcript["bob"].append((delivery.room, delivery.source,
                                  delivery.text)),
        bob_news.send("did everyone see that goal?!")
        if delivery.source == "alice" else None)

    users["alice"]["sports"].send("GOAL! 1-0!")
    engine.run_until(5.0)

    for node_id in MEMBERS:
        print(f"{node_id}'s merged timeline:")
        for room, source, text in transcript[node_id]:
            print(f"  [{room:>6}] {source}: {text}")
        print()

    # The causal guarantee: nobody sees Bob's news reaction before
    # Alice's sports message — even though they travelled on different
    # channels — because the causal session is shared.
    for node_id, lines in transcript.items():
        cause = lines.index(("sports", "alice", "GOAL! 1-0!"))
        effect = lines.index(("news", "bob", "did everyone see that goal?!"))
        assert cause < effect, node_id
    print("causal order held across rooms at every node")


if __name__ == "__main__":
    main()
