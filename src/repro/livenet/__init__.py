"""Real asyncio UDP transport backend: the stack as a deployable library.

The same protocol kernel that runs against the deterministic simulator
(:mod:`repro.simnet`) binds here to real localhost sockets:

* :class:`~repro.livenet.clock.WallClock` — a wall-clock scheduler adapter
  driving the kernel's one-shot/backoff timer primitives on an asyncio
  loop, with an optional ``time_scale`` so virtual-second scenarios
  compress into fast real-time runs;
* :mod:`repro.livenet.frame` — the datagram frame putting ``Packet``
  names and sizes plus the codec's message bytes directly on the wire;
  the socket is the address, so one request is one frame;
* :class:`~repro.livenet.network.LiveNetwork` — the simulator's sibling
  on :class:`~repro.simnet.network.NetworkBase`: the same nodes
  (:class:`~repro.simnet.node.Node`), topology, failure injection and
  link model, with a UDP socket per node, drained by an event-loop
  reader, as its wire.  With ``impaired`` on, locally-routed datagrams
  take the simulator's seeded per-sender loss draws and per-hop delays,
  so canned scenarios replay against real sockets;
* :class:`~repro.livenet.runner.LiveScenarioRunner` — replays declarative
  scenarios over sockets, keeping the simulated twin as the conformance
  oracle (:mod:`repro.livenet.conformance`).
"""

from repro.livenet.clock import WallClock
from repro.livenet.frame import (FRAME_MAGIC, FRAME_VERSION,
                                 MAX_DATAGRAM_BYTES, decode_frame,
                                 encode_frame, resolve_event_class)
from repro.livenet.network import LiveNetwork
from repro.livenet.runner import LiveScenarioRunner

__all__ = [
    "WallClock",
    "FRAME_MAGIC", "FRAME_VERSION", "MAX_DATAGRAM_BYTES",
    "decode_frame", "encode_frame", "resolve_event_class",
    "LiveNetwork",
    "LiveScenarioRunner",
]
