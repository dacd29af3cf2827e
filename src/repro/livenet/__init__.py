"""Real asyncio UDP transport backend: the stack as a deployable library.

The same protocol kernel that runs against the deterministic simulator
(:mod:`repro.simnet`) binds here to real localhost sockets:

* :class:`~repro.livenet.clock.WallClock` — a wall-clock scheduler adapter
  driving the kernel's one-shot/backoff timer primitives on an asyncio
  loop, with an optional ``time_scale`` so virtual-second scenarios
  compress into fast real-time runs;
* :mod:`repro.livenet.frame` — the datagram frame putting ``Packet``
  metadata plus the codec's ``WirePayload`` blobs directly on the wire
  (varint-framed header over :mod:`repro.kernel.codec`);
* :class:`~repro.livenet.network.LiveNetwork` — the simulator's sibling
  on :class:`~repro.simnet.network.NetworkBase`: the same nodes
  (:class:`~repro.simnet.node.Node`), topology, failure injection and
  link model, with a UDP socket per node as its wire.  With ``impaired``
  on, locally-routed frames take the simulator's seeded per-sender loss
  draws and per-hop delays, so canned scenarios replay against real
  sockets;
* :class:`~repro.livenet.runner.LiveScenarioRunner` — replays declarative
  scenarios over sockets, keeping the simulated twin as the conformance
  oracle (:mod:`repro.livenet.conformance`).
"""

from repro.livenet.clock import WallClock
from repro.livenet.frame import (FRAME_MAGIC, FRAME_VERSION,
                                 MAX_DATAGRAM_BYTES, decode_frame,
                                 encode_frame, resolve_event_class)
from repro.livenet.network import LiveNetwork
from repro.livenet.runner import LiveScenarioRunner, run_scenario_live

__all__ = [
    "WallClock",
    "FRAME_MAGIC", "FRAME_VERSION", "MAX_DATAGRAM_BYTES",
    "decode_frame", "encode_frame", "resolve_event_class",
    "LiveNetwork",
    "LiveScenarioRunner", "run_scenario_live",
]
