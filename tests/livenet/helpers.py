"""A live network without sockets, for tier-1 tests of its routing.

:class:`~repro.livenet.network.LiveNetwork` normally sends through the UDP
sockets ``open_endpoint`` opens; here each node's socket is a
:class:`RecordingSocket` and the clock is hand-cranked, so what the
network *would* put on the wire can be read back synchronously.
"""

from __future__ import annotations

from repro.livenet import WallClock
from repro.livenet.network import LiveNetwork
from repro.simnet.node import NodeKind
from tests.livenet.test_clock import FakeMonotonic


class RecordingSocket:
    """Stands in for a node's UDP socket."""

    def __init__(self, sent: list, node_id: str) -> None:
        self.sent = sent
        self.node_id = node_id

    def sendto(self, data: bytes, address) -> None:
        self.sent.append((self.node_id, address, data))


def offline_live_network(kinds: dict[str, NodeKind], **options):
    """``(network, time source, sent)``: a started :class:`LiveNetwork`
    over recording sockets; ``sent`` collects ``(src, address, frame)``."""
    source = FakeMonotonic()
    clock = WallClock(time_source=source)
    clock.start()
    network = LiveNetwork(clock, **options)
    sent: list = []
    for port, (node_id, kind) in enumerate(kinds.items(), start=9000):
        network._sockets[node_id] = RecordingSocket(sent, node_id)
        network._addresses[node_id] = ("127.0.0.1", port)
        network.add_node(node_id, kind)
    return network, source, sent
