"""Scenario replay over real sockets: the live half of the conformance pair.

:class:`LiveScenarioRunner` subclasses the simulator's
:class:`~repro.scenarios.runner.ScenarioRunner` and overrides exactly two
things: the network it builds (a :class:`~repro.livenet.network.LiveNetwork`
on a :class:`~repro.livenet.clock.WallClock`) and the run orchestration
(an asyncio main that pre-opens every node's UDP endpoint — future
joiners included, since sockets are created asynchronously but the
scenario machinery runs synchronously — then lets real time drive the
virtual horizon).  Scheduling, event application, Morpheus boot, workload
bursts and result collection are all inherited: the scenario executes
through the same code paths on both backends, which is what makes the
sim-vs-live diff meaningful.

Determinism caveat, by design: the *schedule* (joins, crashes,
partitions, bursts) lands at the same virtual instants as in simulation,
and the network's link model is the simulator's own
(:class:`~repro.simnet.network.NetworkBase`), so each sender draws its
losses from the same seeded per-sender stream; but socket latency and OS
scheduling jitter make packet interleavings — and so which of a sender's
packets meets which draw — slightly different run to run.  The
conformance suite therefore compares the protocol-level outcomes that
must be timing-independent — delivery histories of continuously-live
members, view-membership sequences, final deployments — against the
simulated oracle, not raw event traces.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

from repro.livenet.clock import WallClock
from repro.livenet.network import LiveNetwork
from repro.scenarios.runner import (InvariantCheck, ScenarioResult,
                                    ScenarioRunner)
from repro.scenarios.scenario import Scenario

#: Default virtual-per-real compression for scenario replay.  10× keeps a
#: 1 s virtual heartbeat at 100 ms real — far above OS timer jitter — while
#: a 90 s scenario finishes in 9 s of wall clock.
DEFAULT_TIME_SCALE = 10.0


class LiveScenarioRunner(ScenarioRunner):
    """Executes one :class:`Scenario` over asyncio UDP loopback sockets.

    Args:
        scenario: the declarative run description.
        seed: run seed — same derivation as the simulator, so the link
            model's loss streams replay the simulator's seeds.
        invariants: checks run after completion (same contract as the
            simulated runner).
        time_scale: virtual seconds per real second (see
            :class:`WallClock`).
        impaired: charge local frames the link model's loss and delay;
            disable for raw-socket runs.
    """

    def __init__(self, scenario: Scenario, seed: int = 0,
                 invariants: Sequence[InvariantCheck] = (),
                 time_scale: float = DEFAULT_TIME_SCALE,
                 impaired: bool = True) -> None:
        super().__init__(scenario, seed=seed,
                         engine_factory=lambda: WallClock(
                             time_scale=time_scale),
                         invariants=invariants)
        self.time_scale = time_scale
        self.impaired = impaired

    def _build_network(self):
        scenario = self.scenario
        return LiveNetwork(
            self.engine,
            wired=self._link(scenario.wired, "wired"),
            wireless=self._link(scenario.wireless, "wireless"),
            impaired=self.impaired)

    def run(self) -> ScenarioResult:
        """Synchronous entry point: owns a private event loop."""
        return asyncio.run(self.run_async())

    async def run_async(self) -> ScenarioResult:
        """Execute the scenario on the running event loop."""
        loop = asyncio.get_running_loop()
        self.engine = self.engine_factory()
        self.engine.attach(loop)
        self.network = self._build_network()
        try:
            # Every endpoint (joiners included) opens before t=0: socket
            # creation is the only async construction step, and fronting
            # it keeps mid-run joins synchronous, like the simulator's.
            for spec in self.scenario.nodes:
                await self.network.open_endpoint(spec.node_id)
            self._populate()
            self._schedule()
            await self.engine.run_until(self.scenario.duration_s)
            return self._finalize()
        finally:
            await self.network.close()


def run_scenario_live(scenario: Scenario, seed: int = 0,
                      invariants: Sequence[InvariantCheck] = (),
                      time_scale: float = DEFAULT_TIME_SCALE,
                      impaired: bool = True) -> ScenarioResult:
    """One-call convenience: replay ``scenario`` over live sockets."""
    return LiveScenarioRunner(scenario, seed=seed, invariants=invariants,
                              time_scale=time_scale, impaired=impaired).run()
