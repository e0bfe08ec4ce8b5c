"""One run of one workload in a fresh process; ``run.py`` starts it.

Set-up is timed from the first line of this file to problems ready, so it
covers importing numpy, scipy and framefx, loading the config and catalogs,
and building the workload's problems.  Then units of fixed work repeat until
the next one would overrun ``--seconds``.  With ``--trace 1`` plain and
traced units alternate, plain first; the traced ones record spans, and the
difference between the two kinds is the tracing overhead.

The last line of standard output is one JSON object for ``run.py``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


def blas_threads():
    """Configuration and thread count of every OpenBLAS loaded here."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    info = {"config": get_config().decode(), "threads": get_threads()}
        out[Path(path).name] = info
    return out


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    workload = (TINY if args.tiny else WORKLOADS)[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer.instrument(layers.module_patches(tracer)), tracer.span("setup"):
            workload.setup(args.seed)
    else:
        workload.setup(args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    walls = {False: [], True: []}
    first, repeats = None, []
    operations = failed = 0
    loop_start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(walls[False]) > len(walls[True])
        out_dir = tempfile.mkdtemp(dir=scratch)
        try:
            if traced:
                patches = layers.module_patches(tracer) + layers.workload_patches(workload)
                with tracer.instrument(patches), tracer.span("unit"):
                    t0 = time.perf_counter()
                    out = workload.run(out_dir)
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = workload.run(out_dir)
                wall = time.perf_counter() - t0
        finally:
            shutil.rmtree(out_dir)
        walls[traced].append(wall)
        operations += out.operations
        failed += out.failed
        if first is None:
            first = out
        else:
            repeats.append(workload.same(first, out))
        elapsed = time.perf_counter() - loop_start
        next_kind = walls[bool(tracer) and len(walls[False]) > len(walls[True])]
        done = walls[False] and (walls[True] or not tracer)
        if done and elapsed + statistics.median(next_kind) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.check(first)
    checks.extend(("repeated units give identical outputs", ok) for ok in repeats)
    result = {
        "setup_s": setup_s,
        "walls": walls[False],
        "fe": first.fe,
        "attempted": operations + len(checks),
        "failed": failed + sum(not ok for _, ok in checks),
        "failed_checks": sorted({name for name, ok in checks if not ok}),
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if tracer:
        values = layers.per_layer_metrics(
            tracer, first.fe, walls[False], walls[True], workload.outcome(first))
        result["per_layer"] = {name: {"value": values[name], "unit": unit}
                               for name, unit, _ in layers.PER_LAYER}
        tracer.write(scratch.parent / f"trace-{args.workload}-{args.seed}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
