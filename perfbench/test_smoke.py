"""Self-test of the benchmark's smoke configuration.

Run with ``python3 -m pytest perfbench -q`` from the repository root.  Each
case runs the real command with ``--smoke`` (tiny inputs) and checks the
result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload: str, trace: int) -> None:
    done = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", str(trace), "--smoke"
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_failed_design_check_exits_nonzero_without_numbers() -> None:
    # The smoke pool of never-seen crops lasts a few seconds, so
    # the cold workload must refuse to report numbers for this run.
    done = run_bench(ROOT, "--workload", "cold-paper", "--seed", "3", "--seconds", "30", "--trace", "0", "--smoke")
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["metrics"] == {}


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "cold-paper", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
