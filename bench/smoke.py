"""Smoke test of the benchmark: every workload at a tiny size.

    python3 bench/smoke.py

For each workload in ``BENCHMARK.json`` this runs ``bench/run.py --size tiny``
untraced (seed 1) and traced (seeds 1 and 2), and checks that each result
names every metric of ``BENCHMARK.json`` with its unit, that no check failed,
and that the exact counts of the traced runs are the same for both seeds.
Prints one line per failure and exits 1 if there was any.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from tracer import EXACT_COUNTS

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, trace: int):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return None, None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return detail, json.loads(lines[-1]), None


def check_result(label, detail, result, specs) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{label}: checks failed: {detail['failures']}")
    if detail["failed_fraction"] != 0:
        problems.append(f"{label}: failed_fraction {detail['failed_fraction']}")
    got = result["metrics"]
    if set(got) != set(specs):
        problems.append(f"{label}: metrics differ: missing {sorted(set(specs) - set(got))}, "
                        f"extra {sorted(set(got) - set(specs))}")
    for name, unit in specs.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry["unit"] != unit:
            problems.append(f"{label}: {name} has unit {entry['unit']!r}, not {unit!r}")
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{label}: {name} = {entry['value']!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        before = len(problems)
        detail, result, error = run(workload, 1, 0)
        if error:
            problems.append(f"{workload} untraced: {error}")
        else:
            problems += check_result(f"{workload} untraced", detail, result, end_to_end)
        counts = []
        for seed in (1, 2):
            detail, result, error = run(workload, seed, 1)
            if error:
                problems.append(f"{workload} traced seed {seed}: {error}")
                continue
            problems += check_result(f"{workload} traced seed {seed}", detail, result, per_layer)
            counts.append({name: result["metrics"].get(name, {}).get("value")
                           for name in EXACT_COUNTS})
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{workload}: exact counts differ across seeds: {counts}")
        print(f"{workload}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
