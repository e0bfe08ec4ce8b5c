"""framefx benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload frame24-search --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports framefx from its
``src/``.  Every measurement happens in a fresh worker process with BLAS
pinned to one thread.  With ``--trace 0`` it prints the end-to-end metrics:
set-up time is the median over several fresh processes, and the work is
repeated in one more process for ``--seconds``.  With ``--trace 1`` one
process alternates plain and traced units and prints the per-layer
metrics.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``perfbench/README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("frame24-search", "column50-protocol", "frame24-interactions")

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("fe_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "fraction", "higher"),
]

# set-up is measured in this many set-up-only processes plus the measuring one
SETUP_PROCESSES = 4
# workers past these are stopped; set-up takes about a second, and the
# measuring worker's output checks a few more after its --seconds
SETUP_TIMEOUT_S = 20
WORKER_GRACE_S = 60

# one thread for every BLAS numpy or scipy may load, so that timings do not
# depend on the thread count a machine defaults to; the worker reports the
# count each loaded OpenBLAS actually uses
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def worker(args, setup_only=False):
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(SCRATCH / "tmp")]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else args.seconds + WORKER_GRACE_S
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="the smoke-check size: small problems and budgets")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "framefx" / "__init__.py").is_file():
        sys.exit(f"no framefx sources under {ROOT / 'src'}; run from a checkout")

    load_at_start = os.getloadavg()
    try:
        run = worker(args)
        if args.trace:
            metrics = run["per_layer"]
        else:
            setups = [worker(args, setup_only=True)["setup_s"]
                      for _ in range(SETUP_PROCESSES)]
            wall = statistics.median(run["walls"])
            values = {
                "setup_s": statistics.median(setups + [run["setup_s"]]),
                "wall_s": wall,
                "fe_per_s": run["fe"] / wall,
                "peak_rss_mb": run["peak_rss_mb"],
                "ok_frac": 1.0 - run["failed"] / run["attempted"],
            }
            metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
    finally:
        shutil.rmtree(SCRATCH / "tmp", ignore_errors=True)

    env = dict(run["env"], blas_env=BLAS_ENV, loadavg_at_start=load_at_start)
    print("env " + json.dumps(env, sort_keys=True))
    walls = run["walls"]
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} plain units "
          f"of {run['fe']} FE, fastest {min(walls):.4g} s, slowest {max(walls):.4g} s")
    for name in run["failed_checks"]:
        print(f"FAILED CHECK {name}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
