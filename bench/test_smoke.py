"""Smoke test: every workload at tiny size, untraced and traced.

Checks that each run exits 0, that its answers were correct, and that the
last line reports every metric BENCHMARK.json names, with its unit.  Run from
the root of the checkout with ``python3 -m pytest bench/test_smoke.py`` or
``python3 bench/test_smoke.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> dict:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    command[0] = sys.executable
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int) -> None:
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_end_to_end_metrics():
    for workload in SPEC["workloads"]:
        check(workload["name"], 0)


def test_per_layer_metrics():
    for workload in SPEC["workloads"]:
        check(workload["name"], 1)


if __name__ == "__main__":
    test_end_to_end_metrics()
    test_per_layer_metrics()
    print("ok")
