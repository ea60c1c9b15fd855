"""The benchmark's own test: two traced runs with one seed agree exactly.

    python3 -m pytest perfbench/test_perfbench.py

Every count among the per-layer metrics, and the hash of every numeric
result, must be identical between the two runs, so that a later change can
rest a claim on a count.  Each run also checks on its own that its
repetitions agree and that spans cover at least 95% of traced wall time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]


def traced_run(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest: "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_same_seed_repeats_counts_and_results(workload):
    first, first_digest = traced_run(workload, 7)
    second, second_digest = traced_run(workload, 7)
    assert first["correct"] and second["correct"]
    assert first_digest == second_digest
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
