"""Corpus replay: every checked-in shrunk reproducer stays fixed.

Each file under ``tests/scenarios/corpus/`` is a delta-debugged minimal
scenario that once violated a run invariant (the ``violations`` field
records what it reproduced).  These tests replay every entry under both
engines and require all invariants green and bit-identical results —
the regression gate the fuzzer's shrinker feeds.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.kernel import codec
from repro.scenarios.fuzz import ALWAYS_ON, fuzz_oracle, scenario_to_dict
from repro.scenarios.runner import run_scenario
from repro.scenarios.shrink import load_corpus_file
from repro.simnet.engine import HeapSimEngine, SimEngine

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


#: Keys the loader defaults when a file predates them.
OPTIONAL_KEYS = frozenset(("policy", "policy_options", "rules", "governor",
                           "ordering"))


def corpus_ids() -> list[str]:
    return [path.stem for path in CORPUS_FILES]


def test_corpus_is_not_empty():
    assert CORPUS_FILES, "corpus directory lost its reproducers"


@pytest.mark.parametrize("path", CORPUS_FILES, ids=corpus_ids())
class TestCorpusReplay:
    def test_reproducer_stays_fixed(self, path):
        entry = load_corpus_file(str(path))
        violations = fuzz_oracle(entry["scenario_obj"], entry["run_seed"])
        assert violations == [], (
            f"{path.name} regressed: this scenario used to reproduce "
            f"{entry['violations']} and was fixed — it fails again")

    def test_the_file_is_in_the_shape_the_fuzzer_writes(self, path):
        """Loading and writing back changes nothing the file holds, and
        the file leaves out only keys the loader defaults: the replay
        runs the scenario the file shows."""
        entry = load_corpus_file(str(path))
        held = entry["scenario"]
        written = scenario_to_dict(entry["scenario_obj"])
        assert set(written) - set(held) <= OPTIONAL_KEYS
        assert {key: written[key] for key in held} == held

    def test_engines_agree_on_reproducer(self, path):
        entry = load_corpus_file(str(path))
        scenario, seed = entry["scenario_obj"], entry["run_seed"]
        wheel = run_scenario(scenario, seed=seed,
                             engine_factory=SimEngine,
                             invariants=ALWAYS_ON)
        heap = run_scenario(scenario, seed=seed,
                            engine_factory=HeapSimEngine,
                            invariants=ALWAYS_ON)
        assert wheel == heap

    def test_reproducer_replays_under_codec_parity(self, path):
        """The whole corpus again with every wire encode cross-checked:
        parity mode asserts each blob decodes back equal (the
        ``REPRO_CODEC_PARITY=1`` contract the live transport's framing
        depends on), and the run must stay bit-identical to normal mode."""
        entry = load_corpus_file(str(path))
        scenario, seed = entry["scenario_obj"], entry["run_seed"]
        codec.set_parity(True)
        try:
            checked = run_scenario(scenario, seed=seed,
                                   invariants=ALWAYS_ON)
        finally:
            codec.set_parity(False)
        plain = run_scenario(scenario, seed=seed, invariants=ALWAYS_ON)
        assert checked == plain  # parity mode observes, never perturbs
