"""Smoke test of the benchmark: every workload, both modes, at a tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
# Every probe that engine.run calls; their self times plus engine.self_s make engine.run_s.
ENGINE_CHILDREN = (
    "topology.coverage", "synthesis.advance_to", "synthesis.sample_context",
    "desirability.desirability", "desirability.rank", "controller.step", "trace.append",
)


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.1"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int, declared: str) -> dict:
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-2000:] + done.stdout[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[declared]
    }
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_are_positive(workload):
    metrics = _result(workload, 0, "end_to_end")
    assert all(0 < value < float("inf") for value in metrics.values()), metrics


@pytest.mark.parametrize("workload", NAMES)
def test_layer_self_times_add_up_to_engine_run(workload):
    metrics = _result(workload, 1, "per_layer")
    inside = sum(metrics[f"{name}.self_s"] for name in ENGINE_CHILDREN)
    assert inside + metrics["engine.self_s"] == pytest.approx(metrics["engine.run_s"], rel=1e-9)
    assert metrics["topology.coverage.calls"] > 0 and metrics["controller.step.calls"] > 0


def test_workloads_are_seeded():
    for make in WORKLOADS.values():
        assert make(5) == make(5)
        assert make(5) != make(6)
        doc, _ = make(5)
        keys = set(doc) | set(doc["controller"]) | {k for t in doc["terminals"] for k in t}
        assert not keys & {"battery", "app_timeout", "feature_goals"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, NAMES[0], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
