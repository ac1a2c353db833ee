"""The benchmark's own tests: every workload at smoke size, traced and
untraced, the compare command, the correctness gate and the refusal to run
without sources.  About half a minute:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    path = tmp_path_factory.mktemp("results") / "smoke.jsonl"
    outputs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke", "--save", str(path),
            )
            outputs[workload, trace] = proc
    return path, outputs


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_declared_metric(saved, workload, trace):
    proc = saved[1][workload, trace]
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_the_traced_wall_time(saved, workload):
    result = json.loads(saved[1][workload, 1].stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    layers = ("model", "optimizer", "estimation", "policies", "simulator", "cli")
    total = sum(values[f"{layer}.self_s"] for layer in layers) + values["trace.unattributed_s"]
    assert total == pytest.approx(values["trace.wall_s"], abs=1e-6)
    assert values["trace.unattributed_s"] >= 0.0


def test_compare_prints_a_row_per_workload_and_metric(saved):
    proc = subprocess.run(
        [sys.executable, "perfbench/compare.py", str(saved[0]), str(saved[0])],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    expected = len(WORKLOADS) * (len(SPEC["end_to_end"]) + len(SPEC["per_layer"]))
    assert len(rows) == expected
    assert {row.split()[0] for row in rows} == set(WORKLOADS)


def test_gate_rejects_wrong_and_missing_answers():
    ref = {"final_regret": "1.5", "trace_sha256": "ab", "epochs": [3, 2]}
    assert gate({"a": ref}, {"a": dict(ref)}) == []
    assert gate({"a": ref}, {"a": {**ref, "final_regret": "1.5000000000000002"}}) == ["a"]
    assert gate({"a": ref}, {}) == ["a"]
    assert gate({}, {"a": ref}) == ["a"]


def test_gate_lets_a_capped_solve_be_solved_but_not_worse():
    refs = {"c": {"capped": True, "prefix_value": "0.8"}}
    assert gate(refs, {"c": {"capped": True}}) == []
    assert gate(refs, {"c": {"offer": [["p1"], []], "expected_profit": "0.81"}}) == []
    assert gate(refs, {"c": {"offer": [["p1"], []], "expected_profit": "0.79"}}) == ["c"]
    assert gate(refs, {"c": {"error": "boom"}}) == ["c"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sim-launch", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
