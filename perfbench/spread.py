"""Run the benchmark over several seeds and report, per workload and
end-to-end metric, the median and the spread: the distance between the
first and third quartiles as a share of the median, the figure
BENCHMARK.json's bounds are judged against.  A traced run per workload adds
the per-layer metrics.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 1-5 --workloads frame24-search --no-trace

Run lengths come from BENCHMARK.json, so the numbers are comparable with
any other run of the same benchmark on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(spec, workload, seed, trace):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("env "))
    return json.loads(lines[-1]), env


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default every workload")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    report = {}
    for workload in names:
        values, correct, env = {}, True, None
        for seed in args.seeds:
            result, env = run(spec, workload, seed, 0)
            correct &= result["correct"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry = {"seeds": args.seeds, "correct": correct, "env": env, "end_to_end": {}}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": vals}
            flag = "" if spread < m["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"{workload:22s} {m['name']:12s} median {med:12.6g} {m['unit']:9s}"
                  f" spread {spread:7.4f} bound {m['bound']}{flag}", flush=True)
        if not args.no_trace:
            result, _ = run(spec, workload, args.seeds[0], 1)
            entry["per_layer_seed"] = args.seeds[0]
            entry["per_layer"] = {n: m["value"] for n, m in result["metrics"].items()}
            shares = {n: v for n, v in entry["per_layer"].items() if n.endswith(".share")}
            top = max(shares, key=shares.get)
            print(f"{workload:22s} largest share {top} = {shares[top]:.3f}", flush=True)
        report[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
