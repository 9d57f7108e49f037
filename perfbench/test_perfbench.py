"""Self-test of the benchmark at a tiny size.

Runs ``perfbench/run.py --tiny`` on every workload in both modes and checks
that every metric is printed with its unit, that a deliberately wrong
expected output is caught and counted, that the seed drives the generated
inputs, and that a checkout without the program fails without a result.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import metrics
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    completed = subprocess.run(
        [
            sys.executable, str(script), "--workload", workload, "--seed", "7",
            "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra,
        ],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    return completed


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_runs():
    return {
        (workload, trace): _result(_run(workload, trace))
        for workload in WORKLOADS
        for trace in (0, 1)
    }


def test_benchmark_json_names_every_metric_with_its_unit():
    described = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in described["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in described["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in described["per_layer"]} == metrics.PER_LAYER
    assert described["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(tiny_runs, workload, trace):
    result = tiny_runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == set(table)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == table[name], name
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), name
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in table)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_expected_output_is_counted(workload):
    result = _result(_run(workload, 0, "--corrupt-expected"))
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0


def _inputs_digest(workload: str, seed: int) -> str:
    """A digest of (a prefix of) the inputs a workload generates for ``seed``."""
    if workload == "serve_compose":
        items = inputs.compose_problem_texts(seed, 20)
    else:
        from repro.textio.records import mapping_to_text

        items = [mapping_to_text(m).encode() for m in inputs.prefill_mappings(seed, 12)]
        items += inputs.history(seed, "h0-0").texts
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(item if isinstance(item, bytes) else item.encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_seed_drives_the_generated_inputs(workload):
    first = _inputs_digest(workload, 1)
    assert _inputs_digest(workload, 1) == first
    assert _inputs_digest(workload, 2) != first


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run("serve_compose", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_runs_leave_no_temporary_directories(tiny_runs):
    assert not (ROOT / ".perfbench-work").exists()
