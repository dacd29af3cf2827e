"""Dynamic-topology scenarios: declarative schedules of context change.

The subsystem that turns every static experiment into a family of dynamic
ones: a :class:`Scenario` declares the topology (including mid-run
joiners), a timed schedule of events — segment handoffs, churn, loss-model
swaps, partitions — and the workload; the :class:`ScenarioRunner` executes
it deterministically on the simulation timeline while the full Morpheus
pipeline (Cocaditem dissemination → policy → flush → stack swap) adapts
live.  :mod:`repro.scenarios.library` ships the canned scenarios.
"""

from importlib import import_module

from repro.scenarios.runner import (InvariantViolation, ScenarioResult,
                                    ScenarioRunner, build_loss_model,
                                    run_scenario)
from repro.scenarios.scenario import (ChatBurst, Crash, Handoff, Heal,
                                      Leave, LinkSpec, NodeSpec, Partition,
                                      Recover, Scenario, ScenarioEvent,
                                      SetLoss, bernoulli, gilbert_elliott)

#: Names exported from a submodule that is imported on first use (PEP 562):
#: a run needs neither the fuzzer nor the shrinker.
_LAZY = {
    **dict.fromkeys(
        ("CANNED", "canned", "churn_storm", "commuter_handoff",
         "degrading_channel_fec", "energy_rotation", "flash_crowd_join",
         "partition_heal"), "library"),
    **dict.fromkeys(
        ("ALWAYS_ON", "MIXES", "FuzzConfig", "FuzzOutcome", "fuzz_oracle",
         "generate_scenario", "run_fuzz", "run_seed_for",
         "scenario_from_dict", "scenario_to_dict"), "fuzz"),
    **dict.fromkeys(
        ("ShrinkOutcome", "load_corpus_file", "shrink_scenario",
         "write_corpus_file"), "shrink"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "CANNED", "canned", "churn_storm", "commuter_handoff",
    "degrading_channel_fec", "energy_rotation", "flash_crowd_join",
    "partition_heal",
    "InvariantViolation", "ScenarioResult", "ScenarioRunner",
    "build_loss_model", "run_scenario",
    "ChatBurst", "Crash", "Handoff", "Heal", "Leave", "LinkSpec",
    "NodeSpec", "Partition", "Recover", "Scenario", "ScenarioEvent",
    "SetLoss", "bernoulli", "gilbert_elliott",
    "ALWAYS_ON", "MIXES", "FuzzConfig", "FuzzOutcome", "fuzz_oracle",
    "generate_scenario", "run_fuzz", "run_seed_for", "scenario_from_dict",
    "scenario_to_dict",
    "ShrinkOutcome", "load_corpus_file", "shrink_scenario",
    "write_corpus_file",
]
