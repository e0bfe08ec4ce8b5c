"""Best-of-N CPU times of frame scoring and optimizer calls, two checkouts side by side.

    python3 tools/call_times.py --parent ../parent --change . --repeats 15

Loads ``framefx`` from each checkout's ``src/`` into one process, under two
module names, and times the same calls on the 24-story frame: ``probe.f`` at
every point of an interaction stencil (per point), and ``fea.analyze`` and
``evaluate.constraint_values`` on p = 1, 20 and 60 catalog designs (per
call).  The ``pso`` and ``de`` rows time a 51-generation ``run_optimizer``
on the 50-segment stepped column at population 25, per generation (the
initial one included).  The two sides alternate repetition by repetition,
so a slow spell of a shared host falls on both.  Each time is thread CPU
time, which a descheduled process does not accrue, and each number printed
is the best of ``--repeats`` repetitions, in microseconds.  Run it with one
BLAS thread (``OPENBLAS_NUM_THREADS=1``), as perfbench does.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import time

import numpy as np

STACKS = (1, 20, 60)
GENERATIONS, POPULATION = 51, 25


def load(alias, checkout):
    """framefx from ``checkout``/src, imported as the package ``alias``."""
    root = f"{checkout}/src/framefx"
    spec = importlib.util.spec_from_file_location(
        alias, f"{root}/__init__.py", submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    for module in ("evaluate", "fea", "grouping", "optim", "problems"):
        importlib.import_module(f"{alias}.{module}")
    return package


def cases(fx):
    """name -> (callable, calls it makes) on the 24-story frame."""
    problem = fx.problems.frame_problem("frame-24story-3bay")
    model, pools = problem.frame.model, problem.frame.pools
    cs = problem.frame.constraint_set
    probe = problem.probe
    points = []
    fx.grouping.interaction_matrix(lambda x: points.append(x.copy()) or 0.0,
                                   probe.lower, probe.upper)
    out = {"probe.f": (lambda: [probe.f(x) for x in points], len(points))}
    rng = np.random.default_rng(0)
    for p in STACKS:
        index = rng.integers(0, problem.upper + 1, (p, problem.dimension))
        block = np.array([[pool.properties[i] for pool, i in zip(pools, row)]
                          for row in index])
        block = block[0] if p == 1 else block
        result = fx.fea.analyze(model, block)
        out[f"analyze p={p}"] = (lambda b=block: fx.fea.analyze(model, b), 1)
        out[f"constraint_values p={p}"] = (
            lambda b=block, r=result: fx.evaluate.constraint_values(model, b, r, cs), 1)
    column = fx.problems.stepped_column_problem()
    for algorithm in fx.optim.ALGORITHMS:
        config = fx.optim.OptimizerConfig(algorithm, POPULATION, GENERATIONS * POPULATION)
        out[algorithm] = (lambda c=config: fx.optim.run_optimizer(column, c), GENERATIONS)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    # framefx.data (the bundled frames and catalogs) resolves to the change's
    sys.path.insert(0, f"{args.change}/src")
    sides = {"parent": cases(load("framefx_parent", args.parent)),
             "change": cases(load("framefx_change", args.change))}
    for name in sides["parent"]:
        # enough calls per repetition to run for about 20 ms
        start = time.thread_time()
        sides["parent"][name][0]()
        inner = max(1, round(0.02 / max(time.thread_time() - start, 1e-6)))
        best = dict.fromkeys(sides, np.inf)
        for rep in range(args.repeats):
            for side in sorted(sides, reverse=rep % 2 == 1):
                call, count = sides[side][name]
                start = time.thread_time()
                for _ in range(inner):
                    call()
                spent = (time.thread_time() - start) / (inner * count)
                best[side] = min(best[side], spent * 1e6)
        print(f"{name:22s} parent {best['parent']:9.1f} us  change {best['change']:9.1f} us"
              f"  parent/change {best['parent'] / best['change']:.3f}")


if __name__ == "__main__":
    main()
