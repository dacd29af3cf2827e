"""The live wire's own sockets: the reader, its errors, and close.

:class:`~repro.livenet.network.LiveNetwork` binds one non-blocking UDP
socket per node and registers an event-loop reader on it.  Contracts
under test, on real loopback sockets:

* **one readiness event drains the socket** — K queued datagrams, one of
  them garbage, are handled by a single reader callback: K−1 deliveries
  and one ``decode_errors``;
* **a socket error is counted, not raised** — on a read and on a send;
* **close removes every reader** — a datagram queued before ``close()``
  is never delivered, and a send after it goes nowhere;
* **a frame that cannot be built is not link loss** — an oversized chat
  payload is one ``encode_errors`` and leaves ``lost_packets`` alone,
  while a group that only sends what fits counts no encode error at all.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.kernel import Message
from repro.kernel.packet import Packet
from repro.livenet import LiveNetwork, WallClock
from repro.livenet.frame import encode_frame
from repro.protocols.events import ApplicationMessage
from repro.simnet.node import NodeKind
from tests.livenet.conftest import _loopback_udp_available
from tests.livenet.helpers import offline_live_network
from tests.livenet.test_frame import (malformed_payload_frame,
                                     retransmission_frame)
from tests.protocols.helpers import build_group_stack, collector_of

needs_loopback = pytest.mark.skipif(
    not _loopback_udp_available(),
    reason="no bindable UDP loopback socket in this environment")


def datagram(text: str) -> bytes:
    return encode_frame(Packet(src="tx", dst="rx", port="data",
                               event_cls=ApplicationMessage,
                               message=Message(payload=text).wire_copy()))


async def settle(condition, timeout: float = 5.0) -> None:
    """Let the loop run until ``condition()`` or ``timeout`` seconds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition() and asyncio.get_running_loop().time() < deadline:
        await asyncio.sleep(0.01)


class FailingSocket:
    """A socket whose every read and send fails."""

    def recvfrom_into(self, buffer):
        raise ConnectionResetError("reset by peer")

    def sendto(self, data, address):
        raise OSError("network is unreachable")


@needs_loopback
class TestReader:
    def test_one_callback_drains_every_queued_datagram(self, monkeypatch):
        drains = []
        drain = LiveNetwork._drain

        def counted(network, node_id, sock):
            drains.append(node_id)
            drain(network, node_id, sock)

        monkeypatch.setattr(LiveNetwork, "_drain", counted)
        texts = [f"line {k}" for k in range(8)]

        async def scenario():
            network = LiveNetwork(WallClock(), impaired=False)
            address = await network.open_endpoint("rx")
            network.add_fixed_node("rx")
            heard = []
            network.node("rx").bind_port("data", heard.append)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
                for k, text in enumerate(texts):
                    peer.sendto(b"\x00not a frame" if k == 3
                                else datagram(text), address)
                # Nothing is read until the loop runs.
                assert heard == [] and drains == []
                await settle(lambda: len(heard) == len(texts) - 1)
            await network.close()
            return network, heard

        network, heard = asyncio.run(scenario())
        assert drains == ["rx"]
        assert [packet.message.payload for packet in heard] == \
            texts[:3] + texts[4:]
        assert all(packet.dst == "rx" for packet in heard)
        assert network.decode_errors == 1
        assert (network.socket_errors, network.encode_errors,
                network.lost_packets) == (0, 0, 0)

    def test_a_malformed_payload_is_one_decode_error(self, monkeypatch):
        """A well-formed frame around a payload that does not decode is
        counted where every bad datagram is, and the drain goes on to
        the next datagram: the receiving layer reads only good ones."""
        drains = []
        drain = LiveNetwork._drain

        def counted(network, node_id, sock):
            drains.append(node_id)
            drain(network, node_id, sock)

        monkeypatch.setattr(LiveNetwork, "_drain", counted)

        async def scenario():
            network = LiveNetwork(WallClock(), impaired=False)
            address = await network.open_endpoint("rx")
            network.add_fixed_node("rx")
            payloads = []
            network.node("rx").bind_port(
                "data", lambda packet: payloads.append(
                    packet.message.payload))
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
                for data in (datagram("before"), malformed_payload_frame(),
                             datagram("after")):
                    peer.sendto(data, address)
                await settle(lambda: len(payloads) == 2)
            await network.close()
            return network, payloads

        network, payloads = asyncio.run(scenario())
        assert drains == ["rx"]
        assert payloads == ["before", "after"]
        assert network.decode_errors == 1
        assert network.delivered_packets == 2

    def test_a_malformed_nested_payload_is_one_decode_error(self,
                                                            monkeypatch):
        """A retransmission whose inner message's payload does not decode
        is refused by the frame's pass like any bad datagram: the layer
        reading the inner message sees only good ones, and the drain goes
        on."""
        drains = []
        drain = LiveNetwork._drain

        def counted(network, node_id, sock):
            drains.append(node_id)
            drain(network, node_id, sock)

        monkeypatch.setattr(LiveNetwork, "_drain", counted)

        async def scenario():
            network = LiveNetwork(WallClock(), impaired=False)
            address = await network.open_endpoint("rx")
            network.add_fixed_node("rx")
            texts = []
            network.node("rx").bind_port(
                "data", lambda packet: texts.append(
                    packet.message.payload["msg"].payload["text"]))
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
                for data in (retransmission_frame("before"),
                             retransmission_frame("bad", corrupt=True),
                             retransmission_frame("after")):
                    peer.sendto(data, address)
                await settle(lambda: len(texts) == 2)
            await network.close()
            return network, texts

        network, texts = asyncio.run(scenario())
        assert drains == ["rx"]
        assert texts == ["before", "after"]
        assert network.decode_errors == 1
        assert network.delivered_packets == 2

    def test_close_removes_every_reader(self):
        async def scenario():
            network = LiveNetwork(WallClock(), impaired=False)
            addresses = [await network.open_endpoint(node_id)
                         for node_id in ("rx", "tx")]
            network.add_fixed_node("rx")
            network.add_fixed_node("tx")
            heard = []
            network.node("rx").bind_port("data", heard.append)
            fds = [sock.fileno() for sock in network._sockets.values()]
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
                peer.sendto(datagram("queued"), addresses[0])
            await network.close()
            loop = asyncio.get_running_loop()
            removed = [loop.remove_reader(fd) for fd in fds]
            await asyncio.sleep(0.05)
            network.node("tx").send(Packet(
                src="tx", dst="rx", port="data",
                event_cls=ApplicationMessage,
                message=Message(payload="after close").wire_copy()))
            await asyncio.sleep(0.05)
            return network, heard, removed

        network, heard, removed = asyncio.run(scenario())
        assert removed == [False, False]  # close() removed both already
        assert heard == []
        assert network.delivered_packets == 0
        assert network.lost_packets == 1  # the send after close
        assert network.socket_errors == 0

    def test_a_group_over_real_sockets_frames_everything(self):
        """Two full group stacks exchange chat over loopback: every frame
        is built, decoded and delivered without a single error."""
        async def scenario():
            clock = WallClock(time_scale=20.0)
            network = LiveNetwork(clock, impaired=False)
            for node_id in ("a", "b"):
                await network.open_endpoint(node_id)
                network.add_fixed_node(node_id)
            channels = {node_id: build_group_stack(network, node_id,
                                                   ("a", "b"))
                        for node_id in ("a", "b")}
            clock.start()
            await clock.run_until(1.0)
            for k in range(5):
                collector_of(channels["a"]).send_text(f"a:{k}")
                collector_of(channels["b"]).send_text(f"b:{k}")
            await clock.run_until(3.0)
            await network.close()
            return network, {node_id: collector_of(channel).payloads()
                             for node_id, channel in channels.items()}

        network, delivered = asyncio.run(scenario())
        for node_id in ("a", "b"):
            assert sorted(delivered[node_id]) == sorted(
                [f"a:{k}" for k in range(5)] + [f"b:{k}" for k in range(5)])
        assert (network.encode_errors, network.decode_errors,
                network.socket_errors) == (0, 0, 0)


class TestSocketErrors:
    def test_a_failed_read_is_one_socket_error(self):
        network, _, _ = offline_live_network({"rx": NodeKind.FIXED})
        network._drain("rx", FailingSocket())
        assert network.socket_errors == 1
        assert network.decode_errors == 0

    def test_a_failed_send_is_one_socket_error(self):
        network, _, _ = offline_live_network(
            {"tx": NodeKind.FIXED, "rx": NodeKind.FIXED}, impaired=False)
        network._sockets["tx"] = FailingSocket()
        network.node("tx").send(Packet(
            src="tx", dst="rx", port="data", event_cls=ApplicationMessage,
            message=Message(payload="x").wire_copy()))
        assert network.socket_errors == 1
        assert network.lost_packets == 0


class TestEncodeErrors:
    def test_an_oversized_chat_payload_is_an_encode_error(self):
        """70 KB cannot be one datagram: the request is dropped at the
        sender and counted as such, not as link loss."""
        network, source, sent = offline_live_network(
            {"a": NodeKind.FIXED, "b": NodeKind.FIXED})
        channels = {node_id: build_group_stack(network, node_id, ("a", "b"))
                    for node_id in ("a", "b")}
        source.advance(1.0)
        network.engine.poll()
        lost, frames = network.lost_packets, len(sent)
        collector_of(channels["a"]).send_text("x" * 70_000)
        assert network.encode_errors == 1
        assert network.lost_packets == lost
        assert len(sent) == frames
