"""Federated scenario execution: many cells, one room.

:class:`FederationRunner` extends the flat
:class:`~repro.scenarios.runner.ScenarioRunner` with the cell life
cycle:

* **population** — the t=0 members are partitioned into ``cells``
  contiguous chunks of the sorted roster; each chunk boots as an
  independent view-synchronous group under a fresh ``cell-N`` name;
* **joins** — a late joiner enters the currently smallest cell;
* **splits / merges** — driven by the size thresholds (swept after
  every membership-affecting moment) or by explicit
  :class:`~repro.scenarios.scenario.SplitCell` /
  :class:`~repro.scenarios.scenario.MergeCell` events, admitted through
  the :class:`~repro.federation.cell.CellGovernor`.  A reshape is a
  wholesale *re-formation*: chat state is exported, every member's old
  instance shuts down, and fresh instances boot under newly minted cell
  names — stale packets of the retired group die at unbound transport
  ports;
* **bridging** — with more than one cell, each cell elects a gateway
  (:class:`~repro.federation.gateway.GatewayElector`) and the gateways
  run :class:`~repro.federation.router.FederationRouter` instances over
  the gossip bridge, forwarding room traffic cell → gateway → gateway →
  cell with dedup by ``(origin_cell, sender, n)``.

The **1-cell special case**: a scenario with ``cells=1`` and none of
the federation features enabled (no thresholds, no backlog, no
reconcile, no split/merge events) collapses to the flat runner's exact
boot path — unscoped channel names, no sequence stamping, no routers —
so its results are byte-identical to the flat stack.  The tier-1
equivalence gate asserts this on the five canned scenarios.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.morpheus import MorpheusNode
from repro.federation.cell import CellDirectory, CellGovernor
from repro.federation.gateway import GatewayElector, NetworkContextDirectory
from repro.federation.router import FederationRouter
from repro.scenarios.runner import (InvariantCheck, ScenarioResult,
                                    ScenarioRunner)
from repro.scenarios.scenario import (Crash, Handoff, Leave, MergeCell,
                                      Recover, Scenario, ScenarioEvent,
                                      SplitCell)
from repro.simnet.engine import SimEngine


# ---------------------------------------------------------------------------
# Always-on federation invariants
# ---------------------------------------------------------------------------

def check_cross_cell_no_duplicates(runner: ScenarioRunner,
                                   result: ScenarioResult) -> list:
    """No node ever delivers the same (source, text) twice — regardless
    of the path it took (in-cell order, federation, backlog, repair)."""
    violations = []
    for node_id in sorted(runner.morpheus):
        seen: set[tuple[str, str]] = set()
        for delivery in runner.morpheus[node_id].chat.history:
            key = (delivery.source, delivery.text)
            if key in seen:
                violations.append(
                    f"fed-dup: {node_id} delivered {delivery.text!r} from "
                    f"{delivery.source} twice")
            seen.add(key)
    return violations


def check_fed_fifo(runner: ScenarioRunner,
                   result: ScenarioResult) -> list:
    """Cross-cell injections of one (origin_cell, sender) stream arrive
    in strictly increasing sequence order on every node."""
    violations = []
    for node_id in sorted(runner.morpheus):
        high: dict[tuple[str, str], int] = {}
        for delivery in runner.morpheus[node_id].chat.history:
            if delivery.marker != "fed" or delivery.n is None:
                continue
            stream = (delivery.fed_cell, delivery.source)
            if delivery.n <= high.get(stream, -1):
                violations.append(
                    f"fed-fifo: {node_id} delivered n={delivery.n} of "
                    f"stream {stream} after n={high[stream]}")
            else:
                high[stream] = delivery.n
    return violations


#: Installed on every federated run (and by the fuzzer on every run —
#: both checks hold vacuously for flat histories).
FED_ALWAYS_ON: tuple[InvariantCheck, ...] = (
    check_cross_cell_no_duplicates, check_fed_fifo)


class FederationRunner(ScenarioRunner):
    """Executes a federated scenario (``cells >= 1``) deterministically."""

    def __init__(self, scenario: Scenario, seed: int = 0,
                 engine_factory=SimEngine,
                 invariants: Sequence[InvariantCheck] = ()) -> None:
        merged = tuple(invariants) + tuple(
            check for check in FED_ALWAYS_ON if check not in invariants)
        super().__init__(scenario, seed=seed, engine_factory=engine_factory,
                         invariants=merged)
        #: Cell → roster bookkeeping for the whole run.
        self.cells = CellDirectory()
        params = dict(scenario.governor)
        self.governor = CellGovernor(
            budget=int(params.get("budget", 4)),
            window=float(params.get("window", 60.0)),
            cooldown=float(params.get("cooldown", 30.0)),
            flap_limit=int(params.get("flap_limit", 3)))
        self.elector: Optional[GatewayElector] = None
        #: Live router per cell (gateways only, multi-cell only).
        self.routers: dict[str, FederationRouter] = {}
        #: Current gateway per cell.
        self.gateways: dict[str, str] = {}
        #: Chat snapshots of members crashed through a re-formation,
        #: waiting to be re-booted into their new cell on Recover.
        self._stranded: dict[str, dict] = {}
        #: Federation-wide stream high-water marks, absorbed from every
        #: router at refresh time and adopted by every successor — the
        #: (origin_cell, sender, n) dedup that survives gateway handovers
        #: and cell reshapes.
        self._fed_cursors: dict[tuple[str, str], int] = {}
        self._fed_seed = self._rng("fed").randrange(1 << 30)
        #: Group-scoped mode: any scenario that can ever need more than
        #: the flat stack.  Everything else collapses to the flat boot
        #: path, which is what makes the 1-cell case byte-identical.
        self._scoped = (
            scenario.cells > 1 or scenario.cell_size_max > 0
            or scenario.cell_size_min > 0 or scenario.backlog_n > 0
            or scenario.reconcile
            or any(isinstance(event, (SplitCell, MergeCell))
                   for event in scenario.events))

    # -- app/boot hooks -------------------------------------------------------

    def _app_params(self) -> dict:
        return {"fed_seq": True, "backlog_n": self.scenario.backlog_n,
                "reconcile": self.scenario.reconcile}

    def _after_boot(self, node: MorpheusNode) -> None:
        if not self._scoped or not node.group:
            return
        node_id = node.node_id
        node.chat.on_message = (
            lambda delivery, n=node_id:
            self._on_gateway_delivery(n, delivery))

    # -- population -----------------------------------------------------------

    def _populate(self) -> None:
        if not self._scoped:
            super()._populate()
            cell = self.cells.mint()
            for node_id in self.scenario.initial_members():
                self.cells.assign(node_id, cell)
            return
        for spec in self.scenario.nodes:
            if spec.join_at is None:
                self._add_node(spec)
        self.elector = GatewayElector(NetworkContextDirectory(self.network))
        initial = self.scenario.initial_members()
        for roster in self._partition(initial, self.scenario.cells):
            cell = self.cells.mint()
            for node_id in roster:
                self.cells.assign(node_id, cell)
            for node_id in roster:
                self._boot_morpheus(node_id, roster, joining=False,
                                    group=cell)
        self._refresh_federation()
        # Thresholds may already be violated at t=0 (a scenario can start
        # oversized on purpose); sweep once the engine is running.
        self.engine.call_later(0.0, self._sweep_thresholds)
        self.network.subscribe_topology(self._on_topology)

    @staticmethod
    def _partition(members: Sequence[str],
                   count: int) -> list[tuple[str, ...]]:
        """Contiguous chunks of the sorted roster, sizes as even as
        possible (the first ``len % count`` chunks get the extra)."""
        ordered = list(members)
        base, extra = divmod(len(ordered), count)
        chunks: list[tuple[str, ...]] = []
        start = 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            chunks.append(tuple(ordered[start:start + size]))
            start += size
        return [chunk for chunk in chunks if chunk]

    def _live_members(self, cell: str) -> tuple[str, ...]:
        return tuple(
            member for member in self.cells.members_of(cell)
            if member in self.morpheus and member in self.network.nodes
            and self.network.node(member).alive)

    # -- membership-affecting moments ----------------------------------------

    def _join(self, spec) -> None:
        if not self._scoped:
            super()._join(spec)
            cell = self.cells.smallest_cell()
            if cell is not None:
                self.cells.assign(spec.node_id, cell)
            return
        self._add_node(spec)
        cell = self._admission_cell(spec.node_id)
        live = self._live_members(cell)
        members = sorted(set(live) | {spec.node_id})
        self.cells.assign(spec.node_id, cell)
        self._boot_morpheus(spec.node_id, members, joining=True, group=cell)
        self._refresh_federation()
        self.engine.call_later(0.0, self._sweep_thresholds)

    def _admission_cell(self, node_id: str) -> str:
        """The cell a joiner enters: the smallest cell it can hear.

        A joining node discovers its cell by reaching a live member, so
        a cell that is dead or on the far side of a partition is no
        candidate — solicitations to it would go unanswered forever.
        When nothing is reachable (the joiner is isolated), it falls
        back to the smallest roster and parks in admission until
        connectivity returns.
        """
        candidates = []
        for cell in self.cells.cells():
            heard = [m for m in self._live_members(cell)
                     if self.network.reachable(node_id, m)]
            size = len(heard) if heard else len(self.cells.members_of(cell))
            candidates.append((0 if heard else 1, size, cell))
        assert candidates, "federated scenario lost all its cells"
        return min(candidates)[2]

    def _depart(self, node_id: str) -> None:
        super()._depart(node_id)
        self.cells.remove(node_id)
        self._stranded.pop(node_id, None)
        if self._scoped:
            self._refresh_federation()
            self.engine.call_later(0.0, self._sweep_thresholds)

    def _apply(self, event: ScenarioEvent, index: int) -> None:
        if isinstance(event, (SplitCell, MergeCell)):
            self._apply_reshape(event)
            return
        super()._apply(event, index)
        if self._scoped and isinstance(event,
                                       (Crash, Recover, Handoff, Leave)):
            if isinstance(event, Recover):
                self._revive(event.node)
            self._refresh_federation()
            self.engine.call_later(0.0, self._sweep_thresholds)

    def _apply_reshape(self, event: ScenarioEvent) -> None:
        now = self.engine.now()
        if isinstance(event, SplitCell):
            cell = event.cell or self.cells.largest_cell()
            if cell is None or cell not in self.cells.cells():
                self._trace.append(
                    f"{now:9.3f}s skipped splitcell (no such cell "
                    f"{event.cell or '?'})")
                return
            self._split(cell)
            return
        assert isinstance(event, MergeCell)
        cell = event.cell or self.cells.smallest_cell()
        if cell is None or cell not in self.cells.cells():
            self._trace.append(
                f"{now:9.3f}s skipped mergecell (no such cell "
                f"{event.cell or '?'})")
            return
        into = event.into or self.cells.smallest_cell(excluding=cell)
        if into is None or into == cell or into not in self.cells.cells():
            self._trace.append(
                f"{now:9.3f}s skipped mergecell {cell} (no merge partner)")
            return
        self._merge(cell, into)

    def _revive(self, node_id: str) -> None:
        state = self._stranded.pop(node_id, None)
        if state is None:
            return
        cell = self.cells.cell_of(node_id)
        if cell is None:
            cell = self.cells.smallest_cell()
            if cell is None:
                cell = self.cells.mint()
            self.cells.assign(node_id, cell)
        live = [m for m in self._live_members(cell) if m != node_id]
        members = sorted(set(live) | {node_id})
        self._boot_morpheus(node_id, members, joining=bool(live),
                            group=cell, adopt=state)

    # -- splits and merges ----------------------------------------------------

    def _sweep_thresholds(self) -> None:
        if not self._scoped:
            return
        scenario = self.scenario
        for cell in self.cells.cells():
            if cell not in self.cells.cells():
                continue  # retired by an earlier reshape of this sweep
            live = self._live_members(cell)
            if scenario.cell_size_max and len(live) > scenario.cell_size_max:
                self._split(cell)
            elif scenario.cell_size_min and live and \
                    len(live) < scenario.cell_size_min and \
                    len(self.cells.cells()) > 1:
                into = self.cells.smallest_cell(excluding=cell)
                if into is not None:
                    self._merge(cell, into)

    def _split(self, cell: str) -> None:
        members = self.cells.members_of(cell)
        if len(members) < 2:
            return
        half_a, half_b = CellDirectory.plan_split(members)
        name_a, name_b = self.cells.mint(), self.cells.mint()
        movers = {m: name_a for m in half_a}
        movers.update({m: name_b for m in half_b})
        now = self.engine.now()
        if not self.governor.admit_reshape(movers, now):
            self._trace.append(
                f"{now:9.3f}s split of {cell} refused (governor)")
            return
        self._trace.append(
            f"{now:9.3f}s split {cell} ({len(members)}) -> "
            f"{name_a} ({len(half_a)}) + {name_b} ({len(half_b)})")
        self._reform({name_a: half_a, name_b: half_b}, retired=(cell,))

    def _merge(self, cell: str, into: str) -> None:
        members = tuple(sorted(self.cells.members_of(cell) +
                               self.cells.members_of(into)))
        if not members:
            return
        merged = self.cells.mint()
        movers = {m: merged for m in members}
        now = self.engine.now()
        if not self.governor.admit_reshape(movers, now):
            self._trace.append(
                f"{now:9.3f}s merge of {cell} into {into} refused "
                "(governor)")
            return
        self._trace.append(
            f"{now:9.3f}s merge {cell} + {into} -> {merged} "
            f"({len(members)})")
        self._reform({merged: members}, retired=(cell, into))

    def _reform(self, plan: dict[str, tuple[str, ...]],
                retired: tuple[str, ...]) -> None:
        """Tear the retired cells down and boot the planned ones.

        Runs within one virtual instant: chat snapshots are taken, old
        instances shut down (ports unbound, timers cancelled) and the new
        groups boot with the snapshots adopted — the application never
        observes a gap.  Members that are crashed at reshape time cannot
        boot; their snapshots are parked in ``_stranded`` and they rejoin
        their assigned cell on Recover.
        """
        states: dict[str, dict] = {}
        for old in retired:
            for node_id in self.cells.members_of(old):
                node = self.morpheus.get(node_id)
                if node is not None:
                    states[node_id] = node.chat.export_state()
                    node.shutdown()
            self.cells.retire(old)
            if self.elector is not None:
                self.elector.forget(old)
        for new_cell, roster in sorted(plan.items()):
            present = [m for m in roster if m in self.network.nodes]
            for node_id in present:
                self.cells.assign(node_id, new_cell)
            live = tuple(m for m in present if self.network.node(m).alive)
            for node_id in live:
                self._boot_morpheus(node_id, live, joining=False,
                                    group=new_cell,
                                    adopt=states.get(node_id))
            for node_id in present:
                if node_id not in live and node_id in states:
                    self._stranded[node_id] = states[node_id]
        self._refresh_federation()
        self.engine.call_later(0.0, self._sweep_thresholds)

    # -- gateways and routing --------------------------------------------------

    def _refresh_federation(self) -> None:
        """Re-elect gateways and reconcile the router set to match."""
        if not self._scoped or self.elector is None:
            return
        now = self.engine.now()
        desired: dict[str, str] = {}
        for cell in self.cells.cells():
            gateway = self.elector.elect(cell, self._live_members(cell), now)
            if gateway is not None:
                desired[cell] = gateway
        multi = len(self.cells.cells()) > 1
        for cell, router in list(self.routers.items()):
            if not multi or desired.get(cell) != router.node_id:
                self._absorb_cursors(router)
                router.close()
                del self.routers[cell]
        if multi and desired:
            for router in self.routers.values():
                self._absorb_cursors(router)
            ring = tuple(sorted(desired.values()))
            for cell in sorted(desired):
                if cell not in self.routers:
                    router = FederationRouter(
                        self.network, desired[cell], ring,
                        seed=self._fed_seed)
                    router.adopt_cursors(self._fed_cursors)
                    router.session.on_entry = (
                        lambda entry, c=cell: self._on_fed_entry(c, entry))
                    self.routers[cell] = router
            for router in self.routers.values():
                router.set_peers(ring)
        if desired != self.gateways:
            self._trace.append(
                f"{now:9.3f}s gateways " + " ".join(
                    f"{cell}:{gw}" for cell, gw in sorted(desired.items())))
        self.gateways = desired
        for node_id, node in self.morpheus.items():
            cell = self.cells.cell_of(node_id)
            node.chat.backlog_server = (
                cell is not None and desired.get(cell) == node_id)

    def _absorb_cursors(self, router: FederationRouter) -> None:
        for stream, cursor in router.export_cursors().items():
            if cursor > self._fed_cursors.get(stream, -1):
                self._fed_cursors[stream] = cursor

    def _on_gateway_delivery(self, node_id: str, delivery) -> None:
        """Chat tap on every member; forwards only on the current gateway.

        Only unmarked, sequence-stamped deliveries cross the federation —
        ``fed``-marked ones originated elsewhere (forwarding them again
        would loop) and backlog/repair replays are history, not traffic.
        """
        if delivery.marker or delivery.n is None:
            return
        cell = self.cells.cell_of(node_id)
        if cell is None or self.gateways.get(cell) != node_id:
            return
        router = self.routers.get(cell)
        if router is None:
            return
        router.publish({"cell": cell, "sender": delivery.source,
                        "n": delivery.n, "room": delivery.room,
                        "text": delivery.text})

    def _on_fed_entry(self, cell: str, entry: dict) -> None:
        """Router delivery on ``cell``'s gateway: inject foreign entries."""
        if entry["cell"] == cell:
            return
        gateway = self.gateways.get(cell)
        if gateway is None:
            return
        node = self.morpheus.get(gateway)
        if node is None:
            return
        node.chat.inject_federated(str(entry["cell"]), str(entry["sender"]),
                                   int(entry["n"]), str(entry["room"]),
                                   str(entry["text"]))

    # -- collection ------------------------------------------------------------

    def _collect(self) -> ScenarioResult:
        result = super()._collect()
        result.cells = {cell: self.cells.members_of(cell)
                        for cell in self.cells.cells()}
        result.gateways = dict(sorted(self.gateways.items()))
        return result
