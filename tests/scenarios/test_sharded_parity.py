"""The composition determinism gate: worker runs must equal sequential.

Disjoint segments composed by :class:`ShardedScenarioRunner` on one
engine, against the same segments run solo in worker processes.
Same-instant callbacks of different segments share no state and have no
defined mutual order, so the contract is per-segment :func:`projection`
equality across both execution modes.  A composition of one segment must
equal that segment's plain :func:`run_scenario` outright, and composing
must not depend on how the network batches deliveries.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.scenarios.library import canned, churn_storm
from repro.scenarios.runner import run_scenario
from repro.scenarios.scenario import LinkSpec, SetLoss
from repro.scenarios.sharded import (ShardedScenarioRunner,
                                     check_segment_isolation,
                                     merge_solo_results, projection,
                                     relabel_scenario, run_segments_parallel)
from repro.simnet.engine import HeapSimEngine
from tests.simnet.unbatched import unbatched

#: Canned scenarios that carry only segment-scoped events.
SEGMENTABLE = ["commuter_handoff", "flash_crowd_join", "churn_storm",
               "energy_rotation"]


def _segments(count=3, members=5, messages=10):
    template = churn_storm(members=members, messages=messages,
                           duration_s=55.0)
    return [relabel_scenario(template, prefix=f"s{index}-",
                             name=f"seg{index}")
            for index in range(count)]


class TestMultiGroupComposition:
    def test_every_execution_mode_agrees(self):
        segments = _segments()
        expected = projection(ShardedScenarioRunner(segments, seed=5).run())
        solo = run_segments_parallel(segments, seed=5, workers=2)
        assert merge_solo_results(solo) == expected

    def test_heap_engine_agrees(self):
        segments = _segments(count=2)
        sequential = ShardedScenarioRunner(segments, seed=9).run()
        heap = ShardedScenarioRunner(
            segments, seed=9, engine_factory=HeapSimEngine).run()
        assert projection(heap) == projection(sequential)

    def test_segment_isolation_invariant_holds(self):
        segments = _segments(count=2)
        runner = ShardedScenarioRunner(segments, seed=1)
        result = runner.run()
        assert check_segment_isolation(runner, result) == []
        # Every segment delivered its own chat stream.
        for segment in segments:
            sender = f"{segment.nodes[0].node_id}"
            assert any(result.texts[node_id]
                       for node_id in result.texts
                       if node_id.startswith(sender.split("-")[0]))

    def test_deliveries_actually_happened(self):
        segments = _segments(count=2)
        result = ShardedScenarioRunner(segments, seed=2).run()
        assert result.delivered_packets > 0
        # Both segments' survivors got the full chat stream.
        for prefix in ("s0-", "s1-"):
            receivers = [texts for node_id, texts in result.texts.items()
                         if node_id.startswith(prefix) and texts]
            assert receivers, f"no deliveries in segment {prefix}"


class TestOneSegmentComposition:
    @staticmethod
    def _on_default_links(scenario):
        # Link models are network-global, so a segment must leave them at
        # the defaults (``_check_segments`` rejects one that does not).
        return dataclasses.replace(scenario, wired=LinkSpec(),
                                   wireless=LinkSpec())

    @pytest.mark.parametrize("name", SEGMENTABLE)
    def test_equals_the_plain_run(self, name):
        segment = self._on_default_links(canned(name))
        composed = ShardedScenarioRunner([segment], seed=3).run()
        assert composed.delivered_packets > 0
        assert projection(composed) == projection(
            run_scenario(segment, seed=3))


def test_composition_is_independent_of_delivery_batching():
    segments = _segments(count=2)
    batched = ShardedScenarioRunner(segments, seed=4).run()
    with unbatched():
        plain = ShardedScenarioRunner(segments, seed=4).run()
    assert batched.engine_events < plain.engine_events
    assert dataclasses.replace(batched, engine_events=0) == \
        dataclasses.replace(plain, engine_events=0)


class TestCompositionValidation:
    def test_relabel_rejects_network_global_events(self):
        scenario = canned("degrading_channel_fec")
        assert any(isinstance(event, SetLoss) for event in scenario.events)
        with pytest.raises(ValueError, match="network-global"):
            relabel_scenario(scenario, prefix="s0-")

    def test_overlapping_segments_rejected(self):
        template = churn_storm(members=5, messages=5, duration_s=55.0)
        same = relabel_scenario(template, prefix="s0-")
        with pytest.raises(ValueError, match="share node ids"):
            ShardedScenarioRunner([same, same], seed=0)

    def test_segment_link_models_rejected(self):
        segment = canned("commuter_handoff")
        assert segment.wireless != LinkSpec()
        with pytest.raises(ValueError, match="link models"):
            ShardedScenarioRunner([segment], seed=0)
        with pytest.raises(ValueError, match="link models"):
            run_segments_parallel([segment], seed=0)

    def test_relabel_prefixes_everything(self):
        template = churn_storm(members=5, messages=5, duration_s=55.0)
        segment = relabel_scenario(template, prefix="s7-", name="seven")
        assert segment.name == "seven"
        assert all(spec.node_id.startswith("s7-") for spec in segment.nodes)
        assert all(event.node.startswith("s7-") for event in segment.events)
        assert all(burst.sender.startswith("s7-")
                   for burst in segment.workload)
