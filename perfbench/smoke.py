"""Smoke check of the benchmark at a tiny size, in well under a minute.

    python3 perfbench/smoke.py

Every workload in BENCHMARK.json runs plain and traced with ``--tiny``
(8-story frame, 10-segment column, budgets of a few generations) and must
print a correct result carrying exactly the listed metrics with their
units.  A copy of the benchmark without the framefx sources must fail
without printing a result.  Exits 1 on the first problem found.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".perfbench" / "bare"


def run(cwd, spec, workload, trace):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected):
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"not correct: {proc.stdout}"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        return f"metrics {got} != {expected}"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            problem = check_result(run(ROOT, spec, workload, trace), expected)
            print(f"{workload} trace={trace}: {problem or 'ok'}")
            if problem:
                return 1

    shutil.rmtree(BARE, ignore_errors=True)
    try:
        BARE.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", BARE)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, BARE / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(BARE, spec, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    printed_result = '"correct"' in proc.stdout
    print(f"without sources: exit {proc.returncode}"
          f"{', printed a result' if printed_result else ''}")
    return 0 if proc.returncode != 0 and not printed_result else 1


if __name__ == "__main__":
    sys.exit(main())
