"""Smoke tests: every experiment harness runs and keeps its shape.

These are scaled far below the benchmark sizes — they guard against the
harnesses rotting, not against performance drift (that is what
``pytest benchmarks/ --benchmark-only`` is for).
"""

from __future__ import annotations

import pytest

from repro.experiments.control_overhead import (control_fraction,
                                                format_breakdown,
                                                run_breakdown)
from repro.experiments.energy_lifetime import format_results, run_lifetime
from repro.experiments.fec_crossover import (format_sweep as format_fec,
                                             run_recovery)
from repro.experiments.figure2_stacks import deploy_stacks, render, verify
from repro.experiments.figure3 import (Figure3Config, format_figure3,
                                       run_figure3, run_scenario)
from repro.experiments.gossip_scale import format_sweep as format_gossip
from repro.experiments.gossip_scale import run_scale
from repro.experiments.reconfiguration import run_reconfiguration
from repro.experiments.report import format_table
from repro.experiments.scenario_suite import format_suite, run_suite


TINY = Figure3Config(node_counts=(2, 3), messages=60, warmup=20.0,
                     drain=10.0)


class TestFigure3Harness:
    def test_both_series_and_rendering(self):
        points = run_figure3(TINY)
        table = format_figure3(points, TINY.messages)
        assert "devices" in table and "optimized" in table
        for point in points:
            assert point.optimized.delivered_everywhere
            assert point.not_optimized.delivered_everywhere

    def test_scenario_counts_match_paper_formula(self):
        result = run_scenario(3, optimized=False, config=TINY)
        assert result.sent_data == TINY.messages * 2
        result = run_scenario(3, optimized=True, config=TINY)
        assert result.sent_data == TINY.messages


class TestFigure2Harness:
    def test_deploy_render_verify(self):
        captured = deploy_stacks(num_mobile=1, settle_s=15.0)
        assert verify(captured) == []
        text = render(captured)
        assert "mecho/wired" in text and "mecho/wireless" in text


class TestAblationHarnesses:
    def test_reconfiguration_harness(self):
        result = run_reconfiguration(3)
        assert result.messages_lost == 0
        assert result.latency_s > 0

    def test_fec_crossover_harness(self):
        arq = run_recovery(0.1, "arq", messages=40, seed=3)
        fec = run_recovery(0.1, "fec", messages=40, seed=3)
        assert arq.delivery_ratio > 0.95
        assert fec.delivery_ratio > 0.95
        table = format_fec([(arq, fec)])
        assert "arq" in table

    def test_gossip_scale_harness(self):
        flood = run_scale(8, "flood", messages=10, seed=4)
        gossip = run_scale(8, "gossip", messages=10, seed=4)
        assert flood.origin_sent_per_multicast == 7.0
        assert gossip.delivery_ratio > 0.8
        assert "flood" in format_gossip([(flood, gossip)])

    def test_energy_lifetime_harness(self):
        result = run_lifetime("rotating", num_nodes=3, capacity_mj=800.0,
                              horizon_s=300.0)
        assert 0 < result.lifetime_s <= 300.0
        assert "rotating" in format_results([result])

    def test_control_overhead_harness(self):
        adaptive, baseline = run_breakdown(num_nodes=3, messages=60)
        assert control_fraction(baseline) < control_fraction(adaptive) < 1.0
        table = format_breakdown(adaptive, baseline)
        assert "ApplicationMessage" in table


class TestPaperShapes:
    """The shapes the paper reports, at tier-1 sizes (the benchmark files
    assert the same shapes at larger sizes)."""

    SHAPE = Figure3Config(messages=200, warmup=20.0, drain=10.0)

    @pytest.mark.parametrize("num_nodes", (2, 3, 6))
    def test_figure3_flat_and_linear_series(self, num_nodes):
        optimized = run_scenario(num_nodes, optimized=True, config=self.SHAPE)
        baseline = run_scenario(num_nodes, optimized=False, config=self.SHAPE)
        assert optimized.delivered_everywhere
        assert baseline.delivered_everywhere
        assert optimized.sent_data == self.SHAPE.messages
        assert baseline.sent_data == self.SHAPE.messages * (num_nodes - 1)

    def test_figure3_two_nodes_coincide(self):
        optimized = run_scenario(2, optimized=True, config=self.SHAPE)
        baseline = run_scenario(2, optimized=False, config=self.SHAPE)
        assert 0.8 < optimized.sent_total / baseline.sent_total < 1.3

    def test_figure3_gain_grows_with_n(self):
        gains = []
        for num_nodes in (3, 6, 9):
            optimized = run_scenario(num_nodes, optimized=True,
                                     config=self.SHAPE)
            baseline = run_scenario(num_nodes, optimized=False,
                                    config=self.SHAPE)
            gains.append(baseline.sent_total / optimized.sent_total)
        assert gains == sorted(gains)
        assert gains[-1] > 4.0

    def test_figure2_stacks_before_and_after_adaptation(self):
        captured = deploy_stacks(num_mobile=2)
        for info in captured.values():
            assert info["before"][1] == "beb"
            assert info["after"][1] == "mecho"
            assert info["before"][2:] == info["after"][2:]
            assert info["relay"] == "fixed-0"

    def test_switch_message_cost_grows_linearly(self):
        small = run_reconfiguration(3)
        large = run_reconfiguration(9)
        assert small.messages_lost == large.messages_lost == 0
        assert large.latency_s < 2.0 and large.longest_gap_s < 2.0
        assert 1.5 < large.switch_messages / small.switch_messages < 4.5

    def test_rotation_extends_lifetime(self):
        params = dict(num_nodes=4, capacity_mj=1200.0, horizon_s=500.0)
        plain = run_lifetime("plain", **params)
        static = run_lifetime("static", **params)
        rotating = run_lifetime("rotating", **params)
        assert rotating.lifetime_s > plain.lifetime_s > static.lifetime_s
        assert rotating.relay_switches >= 2
        assert rotating.delivered_in_lifetime > plain.delivered_in_lifetime

    def test_control_stays_a_minor_share(self):
        adaptive, baseline = run_breakdown(num_nodes=6, messages=400)
        assert control_fraction(adaptive) < 0.35
        assert adaptive.sent_total < 0.5 * baseline.sent_total
        assert baseline.sent_by_event.get("ContextMessage", 0) == 0
        assert baseline.sent_by_event.get("CoreMessage", 0) == 0
        assert adaptive.sent_by_event.get("ContextMessage", 0) > 0


class TestScenarioSuiteHarness:
    def test_scaled_down_suite_runs_and_renders(self):
        results = run_suite(["commuter_handoff", "flash_crowd_join"],
                            seed=1, messages=30)
        table = format_suite(results)
        assert "commuter_handoff" in table and "flash_crowd_join" in table
        for result in results:
            assert result.reconfiguration_count() >= 1


class TestReportFormatting:
    def test_table_alignment(self):
        table = format_table(["name", "value"], [["x", 1], ["yy", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_empty_rows(self):
        table = format_table(["a"], [])
        assert "a" in table
