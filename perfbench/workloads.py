"""The benchmark's workloads: inputs made from a seed, one unit of fixed work
through framefx's public API, and the checks on what that unit produced.

A unit is repeated for the length of a run; every repetition does the same
work on the same inputs, so its outputs must also be the same, and only the
first repetition's outputs are checked in full.
"""

from __future__ import annotations

import dataclasses
import statistics

import numpy as np

from framefx import fea, grouping, harness
from framefx.harness import ExperimentPlan
from framefx.sections import interpolated_properties

FRAME24 = {"kind": "frame", "config": "frame-24story-3bay"}
FRAME8 = {"kind": "frame", "config": "frame-8story-1bay"}

# relative residual ||K u - F|| / ||F||: correct solves of the bundled frames
# (condition numbers up to 1e9) stay under 2e-10, and scaling u by 1 + 1e-6
# gives 1e-6
EQUILIBRIUM_TOL = 1e-8


@dataclasses.dataclass
class Output:
    """What one unit produced: FE charged, operations run and failed, and
    the outputs themselves (records by cell, or a matrix and its points)."""

    fe: int
    operations: int
    failed: int
    payload: object


def _free_dofs_and_loads(model):
    n_dof = 3 * len(model.nodes)
    loads = np.zeros(n_dof)
    for node, fx, fy, m in model.loads:
        loads[3 * node:3 * node + 3] += (fx, fy, m)
    free = np.setdiff1d(np.arange(n_dof), model.constrained_dofs())
    return free, loads[free]


def equilibrium_error(model, assignment) -> float:
    """Relative residual of ``fea.analyze`` against the assembled stiffness."""
    k_ff = fea.constrained_stiffness(model, assignment)
    free, f = _free_dofs_and_loads(model)
    u = fea.analyze(model, assignment).displacements.ravel()[free]
    return float(np.linalg.norm(k_ff @ u - f) / np.linalg.norm(f))


def _non_increasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


class Search:
    """``harness.run_plan`` over a set of cells, one process, into a
    scratch directory; a unit is the whole plan."""

    def __init__(self, spec, algorithms, strategies, trials, population=None,
                 max_fe=None):
        self.spec = spec
        self.algorithms = algorithms
        self.strategies = strategies
        self.trials = trials
        self.population = population
        self.max_fe = max_fe

    def setup(self, seed):
        problem = harness.build_problem(self.spec)
        if "fx" in self.strategies:
            harness.attach_fx(problem)
        population, max_fe = harness.default_cell_settings(problem)
        population.update(self.population or {})
        max_fe.update(self.max_fe or {})
        self.plan = ExperimentPlan(
            name=f"bench-{seed}", problem_spec=self.spec,
            strategies=self.strategies, algorithms=self.algorithms,
            trials=self.trials, seed_base=seed,
            population=population, max_fe=max_fe)

    def run(self, out_dir) -> Output:
        records, _, _ = harness.run_plan(self.plan, out_dir, jobs=1)
        recs = [r for cell in records.values() for r in cell]
        return Output(fe=sum(r.fe_used for r in recs), operations=len(recs),
                      failed=sum(r.failed for r in recs), payload=records)

    def same(self, a: Output, b: Output) -> bool:
        def docs(out):
            return {cell: [dataclasses.asdict(r) for r in recs]
                    for cell, recs in out.payload.items()}
        return docs(a) == docs(b)

    def check(self, out: Output):
        """(check name, passed) for every completed trial of one unit."""
        problem = harness.build_problem(self.spec)
        frame = problem.frame
        results = []
        for recs in out.payload.values():
            for r in recs:
                if r.failed:
                    continue
                ev = problem.evaluate(np.array(r.final_vector))
                results.append(("re-evaluates bit for bit",
                                ev.objective == r.final_objective
                                and ev.violations.tolist() == r.final_violations))
                results.append(("fe_used equals the budget", r.fe_used == r.max_fe))
                if r.algorithm == "de":
                    results.append(("DE infeasible fraction never increases",
                                    _non_increasing(r.infeasible_fraction_history)))
                if r.strategy == "fx" and frame is not None:
                    results.append(("fx column stacks are monotone", all(
                        rep["monotone"]
                        for rep in harness.practicality_report(r, problem))))
                elif r.strategy == "fx":
                    results.append(("fx radii are monotone",
                                    _non_increasing(r.final_decoded["radii_cm"])))
                if frame is not None:
                    indices = r.final_decoded["section_indices"]
                    assignment = tuple(frame.pools[g][i] for g, i in enumerate(indices))
                    results.append(("equilibrium residual",
                                    equilibrium_error(frame.model, assignment)
                                    <= EQUILIBRIUM_TOL))
        return results

    def outcome(self, out: Output):
        """Share of trials with a feasible final design, and the median
        final weight of those trials (0 when there are none)."""
        recs = [r for cell in out.payload.values() for r in cell if not r.failed]
        weights = [r.final_objective for r in recs if r.final_feasible]
        return (len(weights) / max(len(recs), 1),
                statistics.median(weights) if weights else 0.0)


class Interactions:
    """``grouping.interaction_matrix`` on a frame's penalized probe.

    The box is the probe's own, with each bound moved inward by a seeded
    0-5% of its range, so every seed probes the same infeasible-heavy region
    (where the penalty couples the groups) through different points.
    """

    def __init__(self, spec):
        self.spec = spec

    def setup(self, seed):
        self.problem = harness.build_problem(self.spec)
        probe = self.problem.probe
        self.probe_f = probe.f
        rng = np.random.default_rng(seed)
        span = probe.upper - probe.lower
        self.lower = probe.lower + span * rng.uniform(0.0, 0.05, span.size)
        self.upper = probe.upper - span * rng.uniform(0.0, 0.05, span.size)
        self.pair = tuple(sorted(rng.choice(span.size, size=2, replace=False)))

    def run(self, out_dir) -> Output:
        points = []

        def f(x):
            value = self.probe_f(x)
            points.append((x.copy(), value))
            return value

        matrix = grouping.interaction_matrix(f, self.lower, self.upper)
        return Output(fe=matrix.fe_cost, operations=1, failed=0,
                      payload=(matrix, points))

    def same(self, a: Output, b: Output) -> bool:
        (ma, _), (mb, _) = a.payload, b.payload
        return (np.array_equal(ma.lam, mb.lam)
                and np.array_equal(ma.adjacency, mb.adjacency))

    def check(self, out: Output):
        matrix, points = out.payload
        lam = matrix.lam
        results = [
            ("matrix is symmetric", np.array_equal(lam, lam.T)
             and np.array_equal(matrix.adjacency, matrix.adjacency.T)),
            ("matrix is non-negative", bool((lam >= 0).all())),
            ("fe_cost matches the stencil",
             matrix.fe_cost == grouping.matrix_fe_cost(matrix.n) == len(points)),
        ]
        # one pair recomputed in a fresh problem from its four stencil points
        fresh = harness.build_problem(self.spec).probe.f
        i, j = self.pair
        mid = (self.lower + self.upper) / 2.0

        def at(ids):
            x = self.lower.copy()
            x[list(ids)] = mid[list(ids)]
            return fresh(x)

        value = abs((at((i, j)) - at((j,))) - (at((i,)) - at(())))
        results.append(("pair re-evaluates bit for bit", value == lam[i, j]))
        frame = self.problem.frame
        for x, _ in (points[0], points[len(points) // 2], points[-1]):
            assignment = tuple(interpolated_properties(frame.pools[g], a)
                               for g, a in enumerate(x))
            results.append(("equilibrium residual",
                            equilibrium_error(frame.model, assignment)
                            <= EQUILIBRIUM_TOL))
        return results

    def outcome(self, out: Output):
        return 0.0, 0.0


WORKLOADS = {
    "frame24-search": lambda: Search(
        FRAME24, ("pso", "de"), ("none", "fx"), trials=1,
        population={"none": 20, "fx": 20}, max_fe={"none": 60, "fx": 60}),
    "column50-protocol": lambda: Search(
        {"kind": "stepped-column", "segment_count": 50},
        ("pso", "de"), ("none", "ifx", "fx"), trials=1),
    "frame24-interactions": lambda: Interactions(FRAME24),
}

# the same code paths at a size that runs in seconds, for the smoke check
TINY = {
    "frame24-search": lambda: Search(
        FRAME8, ("pso", "de"), ("none", "fx"), trials=1,
        population={"none": 6, "fx": 6}, max_fe={"none": 12, "fx": 12}),
    "column50-protocol": lambda: Search(
        {"kind": "stepped-column", "segment_count": 10},
        ("pso", "de"), ("none", "ifx", "fx"), trials=1,
        population={s: 6 for s in ("none", "ifx", "fx")},
        max_fe={s: 24 for s in ("none", "ifx", "fx")}),
    "frame24-interactions": lambda: Interactions(FRAME8),
}
