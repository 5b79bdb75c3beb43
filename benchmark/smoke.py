"""Self-test of the benchmark on tiny sizes.

Runs every workload at the smoke size, untraced and traced, and checks that
each run is correct and prints every metric that BENCHMARK.json names, with
its unit, and nothing else.  A traced run is correct only when every entry
point is found and every layer its workload exercises reads non-zero.
Takes about a minute.

    python3 benchmark/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} exited with "
                         f"{completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def problems(result: dict, expected: dict) -> list:
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        out.append(f"run not correct: {result['attempted']} attempted, "
                   f"{result['failed']} failed")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        out.append(f"missing {sorted(set(expected) - set(metrics))}, "
                   f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        if name in metrics and metrics[name]["unit"] != unit:
            out.append(f"{name} has unit {metrics[name]['unit']}, not {unit}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = problems(run(workload, trace), expected[trace])
            status = "ok" if not found else "FAIL " + "; ".join(found)
            print(f"{workload:<18} trace {trace}: {status}")
            failures += bool(found)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
