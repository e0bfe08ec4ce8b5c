"""Alternating parent/change pairs of perfbench runs, summarized as a BENCH_*.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload column50-protocol --seeds 11-20 --traced-seeds 11 \\
        --claim fe_per_s --out BENCH_selection_keys.json

``--parent`` and ``--change`` are two source checkouts; each run is
``python3 perfbench/run.py`` started from inside one of them, so each side
measures its own ``src/`` with its own benchmark code.  Every run lasts the
``run_seconds`` of the change's ``BENCHMARK.json``.  There is one pair per
seed of ``--seeds``: pair i runs seed i on both sides, the parent first in odd
pairs and the change first in even pairs.  For every end-to-end metric the file records each side's runs,
median and quartiles, and how many pairs the change won (ties count for
neither side).  ``--traced-seeds`` adds one ``--trace 1`` run per side and
seed, alternating the same way.  Each side's slowest plain unit per run,
from ``run.py``'s ``fastest/slowest`` line, is kept beside the metrics: a
cost that moves into a run's first unit shows there, not in ``wall_s``'s
median.  ``--claim METRIC`` states whether METRIC improved on this
workload: the change must win at least nine pairs in ten and the medians
must differ by more than the parent's interquartile range.

The output file gathers every workload run into it: a second invocation with
another ``--workload`` adds that workload's entries and keeps the others.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def parse_seeds(text):
    """'11-20' or '1,4,7' as a list of ints."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


SLOWEST = re.compile(r"^workload .* slowest (\S+) s$")


def perfbench(checkout: Path, workload, seed, seconds, trace):
    """One perfbench run from ``checkout``: (result, env, slowest unit in s)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    slowest = next(float(m[1]) for m in map(SLOWEST.match, lines) if m)
    return json.loads(lines[-1]), env, slowest


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(better, parent_runs, change_runs):
    """Both sides' quartiles and the change's wins over the pairs."""
    sign = 1 if better == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(parent_runs, change_runs)]
    q = {side: [round(v, 6) for v in quartiles(runs)]
         for side, runs in (("parent", parent_runs), ("change", change_runs))}
    return {
        "better": better,
        "parent_q1_median_q3": q["parent"],
        "change_q1_median_q3": q["change"],
        "change_wins": sum(d > 0 for d in diffs),
        "ties": sum(d == 0 for d in diffs),
        "parent_runs": [round(v, 6) for v in parent_runs],
        "change_runs": [round(v, 6) for v in change_runs],
    }


def claim_verdict(workload, metric, summary):
    parent_q1, parent_median, parent_q3 = summary["parent_q1_median_q3"]
    change_median = summary["change_q1_median_q3"][1]
    pairs = len(summary["parent_runs"])
    sign = 1 if summary["better"] == "higher" else -1
    parent_iqr = parent_q3 - parent_q1
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": round(parent_iqr, 6),
        "change_wins": summary["change_wins"],
        "pairs": pairs,
        "ratio": round(change_median / parent_median, 5),
        "met": summary["change_wins"] >= WIN_SHARE * pairs
        and sign * (change_median - parent_median) > parent_iqr,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="one seed per pair: 'first-last' or a comma list")
    parser.add_argument("--traced-seeds", type=parse_seeds, default=[])
    parser.add_argument("--claim", metavar="METRIC",
                        help="the end-to-end metric this workload claims a gain on")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["command"] = (f"python3 perfbench/run.py --workload <name> --seed <s> "
                      f"--seconds {seconds} --trace <0|1>, run from each checkout")
    doc["protocol"] = ("alternating pairs on one seed each (odd pairs parent first, "
                       "even pairs change first); each side's median and quartiles "
                       "over its runs; a win is the change reading better than the "
                       "parent on the same seed, ties count for neither side")

    def order(i):
        return ("parent", "change") if i % 2 == 0 else ("change", "parent")

    runs = {"parent": [], "change": []}
    slowest = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        for side in order(i):
            result, env, unit_s = perfbench(sides[side], args.workload, seed, seconds, 0)
            doc.setdefault("env", env)
            runs[side].append(result)
            slowest[side].append(unit_s)
            values = {n: round(m["value"], 6) for n, m in result["metrics"].items()}
            print(f"{args.workload} pair {i + 1}/{len(args.seeds)} seed {seed} {side}: "
                  f"{json.dumps(values)}", file=sys.stderr, flush=True)
        done = len(runs["parent"])
        entry = {
            "pairs": done,
            "seeds": args.seeds[:done],
            "metrics": {name: summarize(better[name],
                                        [r["metrics"][name]["value"] for r in runs["parent"]],
                                        [r["metrics"][name]["value"] for r in runs["change"]])
                        for name in better},
            "slowest_unit_s": slowest,
            "correct": all(r["correct"] for side in runs.values() for r in side),
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        }
        doc.setdefault("end_to_end", {})[args.workload] = entry
        if args.claim:
            doc["claim"] = claim_verdict(args.workload, args.claim,
                                         entry["metrics"][args.claim])
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for i, seed in enumerate(args.traced_seeds):
        traced = doc.setdefault("traced", {}).setdefault(args.workload, {})
        entry = traced.setdefault(f"seed_{seed}", {})
        for side in order(i):
            result, *_ = perfbench(sides[side], args.workload, seed, seconds, 1)
            entry[side] = {n: round(m["value"], 6) for n, m in result["metrics"].items()}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
