"""Smoke test of the benchmark command: shape, not speed.

Runs ``benchmarks/spine/run.py`` the way the driver does, at
``--seconds 1``, and checks the result line against ``BENCHMARK.json``.
The simulator workloads are part of the tier-1 gate; the live one opens
UDP sockets and carries the repo's ``live`` marker.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import socket
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
SIM_WORKLOADS = ["sim_chat_flood", "sim_churn", "sim_adapt_cycle"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")


def run(workload, trace, seed=3, seconds=1, cwd=ROOT, extra=(), env=None):
    return subprocess.run(
        MANIFEST["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds),
                               "--trace", str(trace), *extra],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120)


def check_result(done, trace) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert set(value) == {"value", "unit"}
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0
    return result["metrics"]


def test_manifest_obeys_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/spine"]
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_end_to_end_result_line(workload):
    check_result(run(workload, trace=0), trace=0)


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_per_layer_result_line(workload):
    metrics = check_result(run(workload, trace=1), trace=1)
    share = metrics["wire.background_packet_share"]["value"]
    if workload == "sim_churn":
        assert share >= 0.9
    if workload == "sim_chat_flood":
        assert share <= 0.05
    assert all(value["value"] == 0 for name, value in metrics.items()
               if name.startswith("livenet."))


def test_inputs_depend_on_the_seed_only():
    def digest(seed, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        done = run("sim_adapt_cycle", trace=0, seed=seed, seconds=20,
                   extra=("--child", "inputs"), env=env)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    assert digest(4, 1) == digest(4, 2)
    assert digest(4, 1) != digest(5, 1)


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "spine",
                    tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = run("sim_churn", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def _loopback_udp_available() -> bool:
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.bind(("127.0.0.1", 0))
    except OSError:
        return False
    return True


@pytest.mark.live
@pytest.mark.skipif(not _loopback_udp_available(),
                    reason="no bindable UDP loopback socket here")
@pytest.mark.parametrize("trace", [0, 1])
def test_live_result_line(trace):
    metrics = check_result(run("live_udp_closed", trace=trace), trace=trace)
    if trace:
        assert all(value["value"] == 0 for name, value in metrics.items()
                   if name.startswith("simnet."))
        assert metrics["livenet.network.datagrams_sent"]["value"] > 0
