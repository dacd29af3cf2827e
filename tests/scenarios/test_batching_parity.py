"""Differential proofs for the hot-path rework: batching and the codec.

* **batched vs unbatched** — coalescing same-slot deliveries into one
  engine event must not change a single observable: every
  :class:`ScenarioResult` field except ``engine_events`` (the batching
  exists to shrink that one) compares equal, across the full canned suite
  and a fuzzed scenario, to a run whose network schedules one engine
  entry per packet (:func:`tests.simnet.unbatched.unbatched`).
* **wheel vs heap under batching** — the reference heap engine and the
  timer wheel must agree on the *complete* result, ``engine_events``
  included: the flush drain makes its continue/stop decisions from a
  slot-end bound both engines compute identically.
* **byte-accounting parity** — with the codec's parity mode armed, every
  encode on a real scenario asserts ``charge == estimate_size`` and a
  decode round-trip; a whole canned run passing means the compact wire
  format never drifted from the legacy accounting.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.kernel import codec
from repro.scenarios.fuzz import generate_scenario, run_seed_for
from repro.scenarios.library import canned
from repro.scenarios.runner import run_scenario
from repro.simnet.engine import HeapSimEngine
from tests.simnet.unbatched import unbatched

CANNED = ["commuter_handoff", "flash_crowd_join", "degrading_channel_fec",
          "churn_storm", "partition_heal", "energy_rotation"]


def _without_engine_events(result):
    return dataclasses.replace(result, engine_events=0)


class TestBatchedUnbatchedParity:
    @pytest.mark.parametrize("name", CANNED)
    def test_canned_histories_identical(self, name):
        batched = run_scenario(canned(name))
        with unbatched():
            plain = run_scenario(canned(name))
        assert batched.engine_events < plain.engine_events
        assert _without_engine_events(batched) == _without_engine_events(plain)

    def test_fuzzed_scenario_histories_identical(self):
        scenario = generate_scenario(7, 3, mix="partition")
        seed = run_seed_for(7, 3)
        batched = run_scenario(scenario, seed=seed)
        with unbatched():
            plain = run_scenario(scenario, seed=seed)
        assert _without_engine_events(batched) == _without_engine_events(plain)


class TestWheelHeapParityUnderBatching:
    @pytest.mark.parametrize("name", CANNED)
    def test_engines_agree_on_everything(self, name):
        wheel = run_scenario(canned(name))
        heap = run_scenario(canned(name), engine_factory=HeapSimEngine)
        assert wheel == heap  # engine_events included


class TestByteAccountingParity:
    @pytest.mark.parametrize("name", ["commuter_handoff", "churn_storm"])
    def test_codec_charges_match_legacy_estimates(self, name):
        codec.set_parity(True)
        try:
            armed = run_scenario(canned(name))
        finally:
            codec.set_parity(False)
        assert armed == run_scenario(canned(name))  # parity mode is inert

    def test_wire_bytes_counters_populated(self):
        result = run_scenario(canned("commuter_handoff"))
        for snapshot in result.stats.values():
            if snapshot["sent_total"]:
                assert snapshot["sent_wire_bytes"] > 0
