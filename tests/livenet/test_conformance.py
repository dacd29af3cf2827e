"""Sim-vs-live conformance: the simulator is the oracle, sockets must agree.

Every canned scenario in :data:`CONFORMANCE_CASES` replays twice — once on
the deterministic simulated network, once over real UDP loopback sockets
with the simulator's seeded link model — and the delivery histories, view
sequences, final control views, and deployed configurations of every
stable node must match exactly.

These tests are marked ``live``: they open real sockets and run in scaled
wall-clock time (roughly 6–12 real seconds per scenario at the default
time scale), so the tier-1 gate excludes them.  Run with::

    python -m pytest -q -m live tests/livenet

On divergence the full diff payload is written as a JSON artifact to
``$REPRO_LIVE_TRACE_DIR`` (falling back to the pytest tmp dir) and the
assertion message names the file — CI uploads the directory so a flaky
divergence is debuggable after the run is gone.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.kernel.message import Message
from repro.kernel.packet import Packet
from repro.livenet import LiveNetwork, WallClock
from repro.livenet.conformance import (CONFORMANCE_CASES, run_conformance,
                                       write_divergence_trace)
from repro.protocols.events import ApplicationMessage
from tests.kernel.helpers import RecorderLayer, build_channel

pytestmark = pytest.mark.live


# -- transport smoke ----------------------------------------------------------

class TestTransportSmoke:
    def test_packet_crosses_a_real_socket(self):
        """Two endpoints on loopback, one unimpaired datagram across."""
        async def scenario():
            clock = WallClock(time_scale=100.0)
            net = LiveNetwork(clock, impaired=False)
            await net.open_endpoint("alpha")
            await net.open_endpoint("beta")
            alpha = net.add_fixed_node("alpha")
            beta = net.add_fixed_node("beta")
            received: list[Packet] = []
            beta.bind_port("data", received.append)
            alpha.send(Packet(src="alpha", dst="beta", port="data",
                              event_cls=ApplicationMessage,
                              message=Message(payload={"text": "over the "
                                                               "wire"})))
            deadline = asyncio.get_running_loop().time() + 5.0
            while not received:
                if asyncio.get_running_loop().time() > deadline:
                    break
                await asyncio.sleep(0.01)
            await net.close()
            return received, net.delivered_packets

        received, delivered = asyncio.run(scenario())
        assert delivered == 1
        assert len(received) == 1
        packet = received[0]
        assert packet.src == "alpha"
        assert packet.event_cls is ApplicationMessage
        assert packet.message.payload == {"text": "over the wire"}


    def test_removed_node_stops_its_timers(self):
        async def scenario():
            net = LiveNetwork(WallClock(time_scale=100.0),
                              impaired=False)
            await net.open_endpoint("alpha")
            node = net.add_fixed_node("alpha")
            channel = build_channel(node.kernel, [RecorderLayer()])
            beat = channel.sessions[0].set_periodic_timer(1.0, tag="beat")
            net.remove_node("alpha")
            await net.close()
            return beat

        assert asyncio.run(scenario()).cancelled


# -- scenario conformance -----------------------------------------------------

@pytest.mark.parametrize("case", CONFORMANCE_CASES,
                         ids=[case.name for case in CONFORMANCE_CASES])
def test_live_replay_matches_simnet_oracle(case, tmp_path):
    report = run_conformance(case, seed=0)
    if not report.ok:
        trace_dir = os.environ.get("REPRO_LIVE_TRACE_DIR", str(tmp_path))
        trace = write_divergence_trace(report, trace_dir)
        detail = "\n  ".join(report.mismatches)
        pytest.fail(
            f"live replay of {case.name!r} diverged from the simnet "
            f"oracle (trace: {trace}):\n  {detail}")
