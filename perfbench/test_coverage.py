"""Self-checks of the benchmark itself: python3 -m pytest perfbench

The trace-coverage check runs every workload traced and requires each
wrapped function to record calls exactly on the workloads that should
exercise it, so a call site that moves cannot leave a dead wrapper.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END_UNITS
from tracing import COVERAGE, per_layer_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == per_layer_units()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_trace_coverage(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "0",
                "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = result["metrics"]
    assert set(metrics) == set(per_layer_units())
    for name, expected in COVERAGE.items():
        calls = metrics[f"{name}.calls"]["value"]
        if workload in expected:
            assert calls > 0, f"{name} never called on {workload}"
        else:
            assert calls == 0, f"{name} called {calls} times on {workload}"


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "nbbm-front", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
