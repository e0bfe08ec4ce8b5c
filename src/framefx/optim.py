"""Population metaheuristics: global-best PSO and DE/rand/1/bin.

Both optimizers treat every variable as continuous; index-coded variables
are rounded inside the problem's evaluation only.  Selection and best
tracking rank designs by the feasibility key (infeasible, value), where
value is the objective of a feasible design and the normalized violation of
an infeasible one: the order that deb_compare defines.  Boundary handling
follows the usual scheme for each algorithm: DE clamps an out-of-bounds
trial component back to the violated bound, PSO clamps the position and
reverses that velocity component so the particle does not immediately
leave again.

Runs are deterministic: one seed feeds two independent substreams, one for
initialization and one for the search loop, so strategies that differ only
in how they initialize share the exact search stream afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# selection compares keys and no longer calls deb_compare, the pairwise
# definition of the same order; the name stays bound for tools that patch it
from .evaluate import GMaxTracker, deb_compare  # noqa: F401
from .fx import STRATEGIES
from .problems import Problem, attach_fx

__all__ = [
    "ALGORITHMS",
    "OptimizerConfig",
    "RunRecord",
    "initialize_population",
    "pso_run",
    "de_run",
    "run_optimizer",
]

ALGORITHMS = ("pso", "de")


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str             # "pso" | "de"
    population_size: int
    max_fe: int
    rng_seed: int = 0
    # PSO coefficients (constriction-equivalent defaults)
    inertia: float = 0.7298
    cognitive: float = 1.49618
    social: float = 1.49618
    v_max_fraction: float = 0.5
    # DE coefficients
    scale_f: float = 0.5
    crossover_cr: float = 0.9

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4 (DE mutation needs "
                             "three donors plus the target)")
        if self.max_fe < self.population_size:
            raise ValueError("max_fe must cover at least the initial population")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass
class RunRecord:
    """Everything one trial produced: histories plus the final best design."""

    strategy: str
    algorithm: str
    seed: int
    population_size: int
    max_fe: int
    problem_name: str
    # what the run produced; a failed trial records these defaults
    fe_used: int = 0
    # best feasible objective per generation (None before first feasible)
    best_history: list = field(default_factory=list)
    # fraction of current population infeasible
    infeasible_fraction_history: list = field(default_factory=list)
    final_vector: list = field(default_factory=list)  # full-space raw design vector
    final_reduced_vector: list | None = None  # reduced vector in reduced space
    final_decoded: dict = field(default_factory=dict)
    final_objective: float | None = None
    final_violations: list = field(default_factory=list)
    final_feasible: bool = False
    final_normalized_violation: float | None = None
    failed: bool = False
    error: str | None = None


def _rng_streams(seed):
    init_ss, search_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(init_ss), np.random.default_rng(search_ss)


def _uniform(rng, lower, upper, size):
    return lower + rng.random((size, lower.size)) * (upper - lower)


def initialize_population(problem: Problem, config: OptimizerConfig,
                          strategy="none", rng=None) -> np.ndarray:
    """Initial positions, one row per particle, for the given strategy.

    none: uniform over the problem's own domains.
    ifx:  sample the reduced space uniformly, expand to full-space points,
          then search in full space.
    fx:   the problem itself must already be reduced; sampling is uniform
          over the reduced domains.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = rng if rng is not None else _rng_streams(config.rng_seed)[0]
    pop = config.population_size

    if (strategy == "fx") != problem.is_reduced:
        raise ValueError(f"strategy {strategy!r} expects the " + (
            "reduced problem (attach functioning rules first)" if strategy == "fx"
            else "full-space problem"))
    if strategy == "ifx":
        reduced = attach_fx(problem)
        return reduced.expand_full(_uniform(rng, reduced.lower, reduced.upper, pop))
    return _uniform(rng, problem.lower, problem.upper, pop)


def reflect_at_bounds(positions, velocities, lower, upper):
    """Clamp positions into the box and reverse the velocity of every
    component that crossed a bound, both in place.  Returns (positions,
    velocities)."""
    crossed = (positions < lower) | (positions > upper)
    np.minimum(np.maximum(positions, lower, out=positions), upper, out=positions)
    np.copyto(velocities, -velocities, where=crossed)  # a masked negative is slower
    return positions, velocities


class _RunState:
    """Budget, violation normalization and history bookkeeping for one run.

    A generation is held as arrays: objectives f (p,), violations g (p, c)
    and the feasibility mask infeasible (p,).  Normalized violations are
    computed only where two infeasible designs are compared, against the
    GMax snapshot that already holds the generation.
    """

    def __init__(self, problem, config, strategy):
        self.problem = problem
        self.config = config
        self.strategy = strategy
        self.tracker = GMaxTracker()
        self.fe_used = 0
        self.best_history = []
        self.infeasible_history = []
        self.best_feasible = None   # (x, f, g) of the best feasible design

    def evaluate(self, X):
        """Evaluate one generation in one call and fold its violations into
        GMax.  Returns (f, g, infeasible)."""
        ev = self.problem.evaluate(X)
        self.fe_used += len(X)
        f = np.asarray(ev.objective, dtype=float)
        g = ev.violations
        if not (np.isfinite(f).all() and np.isfinite(g).all()):
            finite = np.isfinite(f) & np.isfinite(g).all(axis=1)
            raise ValueError(f"non-finite objective or violation at design "
                             f"{X[np.argmin(finite)].tolist()}")
        self.tracker.merge(g)
        infeasible = (g > 0).any(axis=1)
        if not infeasible.all():
            i = self.argbest(f, g, infeasible)
            if self.best_feasible is None or f[i] < self.best_feasible[1]:
                self.best_feasible = (X[i].copy(), float(f[i]), g[i].copy())
        return f, g, infeasible

    def improved(self, held, new) -> np.ndarray:
        """Mask of the rows where the new design's key is lexicographically
        smaller than the held one's, both (f, g, infeasible) on the current
        GMax snapshot: exactly where deb_compare(held, new) > 0."""
        (f, g, infeasible), (new_f, new_g, new_infeasible) = held, new
        if (infeasible & new_infeasible).any():
            held_G, new_G = self.tracker.normalize(np.stack((g, new_g)))
            f = np.where(infeasible, held_G, f)
            new_f = np.where(new_infeasible, new_G, new_f)
        return np.where(infeasible == new_infeasible, new_f < f, infeasible)

    def argbest(self, f, g, infeasible) -> int:
        """Index of the first lexicographic minimum of the key: what a
        sequential scan that keeps the incumbent on ties would end on.  The
        feasible scan ends on an infeasible design only when all are."""
        i = int(np.where(infeasible, np.inf, f).argmin())
        return int(self.tracker.normalize(g).argmin()) if infeasible[i] else i

    def remaining(self) -> int:
        return self.config.max_fe - self.fe_used

    def record_history(self, infeasible):
        self.best_history.append(None if self.best_feasible is None
                                 else self.best_feasible[1])
        self.infeasible_history.append(np.count_nonzero(infeasible) / len(infeasible))

    def make_record(self, fallback_vec, fallback_f, fallback_g) -> RunRecord:
        vec, f, g = self.best_feasible or (np.array(fallback_vec, dtype=float),
                                           fallback_f, fallback_g)
        problem = self.problem
        if problem.is_reduced:
            full_vec = problem.expand_full(vec)
            reduced_vec = [float(v) for v in vec]
        else:
            full_vec = vec
            reduced_vec = None
        return RunRecord(
            strategy=self.strategy,
            algorithm=self.config.algorithm,
            seed=self.config.rng_seed,
            population_size=self.config.population_size,
            max_fe=self.config.max_fe,
            fe_used=self.fe_used,
            best_history=list(self.best_history),
            infeasible_fraction_history=list(self.infeasible_history),
            final_vector=[float(v) for v in np.asarray(full_vec, dtype=float)],
            final_reduced_vector=reduced_vec,
            final_decoded=problem.decode(vec),
            final_objective=float(f),
            final_violations=[float(v) for v in g],
            final_feasible=bool((g <= 0).all()),
            final_normalized_violation=float(self.tracker.normalize(g)),
            problem_name=problem.name,
        )


def pso_run(problem: Problem, config: OptimizerConfig, strategy="none") -> RunRecord:
    """Global-best particle swarm with feasibility-rule best updates."""
    init_rng, rng = _rng_streams(config.rng_seed)
    state = _RunState(problem, config, strategy)
    X = initialize_population(problem, config, strategy, rng=init_rng)
    pop, n = X.shape
    # bounds as (pop, n) rows: ufuncs on equal shapes skip the broadcast loop
    lower, upper = np.tile(problem.lower, (pop, 1)), np.tile(problem.upper, (pop, 1))
    v_max = config.v_max_fraction * (upper - lower)
    v_min = -v_max
    V = np.zeros_like(X)

    f, g, infeasible = state.evaluate(X)
    state.record_history(infeasible)

    # row 0 holds the global best and rows 1.. the personal bests, so the
    # global best heads every scan and survives ties
    best = state.argbest(f, g, infeasible)
    held = [np.insert(a, 0, a[best], axis=0) for a in (X, f, g, infeasible)]
    best_X, best_f, best_g, best_infeasible = held
    gbest_x, pbest_X = best_X[0], best_X[1:]

    while state.remaining() > 0:
        m = min(pop, state.remaining())
        r1, r2 = rng.random((2, pop, n))  # the stream of two (pop, n) draws
        V = (config.inertia * V
             + config.cognitive * r1 * (pbest_X - X)
             + config.social * r2 * (gbest_x - X))
        np.minimum(np.maximum(V, v_min, out=V), v_max, out=V)
        # with a partial budget every particle moves but only the first m are
        # evaluated; it is the last generation, so the others are never read
        X += V
        reflect_at_bounds(X, V, lower, upper)
        f[:m], g[:m], infeasible[:m] = state.evaluate(X[:m])
        state.record_history(infeasible)

        better = state.improved(
            (best_f[1:m + 1], best_g[1:m + 1], best_infeasible[1:m + 1]),
            (f[:m], g[:m], infeasible[:m]))
        rows = better[:, None]
        for kept, new, where in zip(held, (X, f, g, infeasible), (rows, better, rows, better)):
            np.copyto(kept[1:m + 1], new[:m], where=where)
        best = state.argbest(best_f[:m + 1], best_g[:m + 1], best_infeasible[:m + 1])
        if best:
            for kept in held:
                kept[0] = kept[best]

    return state.make_record(gbest_x, best_f[0], best_g[0])


def de_run(problem: Problem, config: OptimizerConfig, strategy="none") -> RunRecord:
    """DE/rand/1/bin with greedy feasibility-rule selection.

    A trial replaces its target only when strictly better under the
    feasibility rules, so a feasible member is never lost and the infeasible
    fraction cannot increase between generations.
    """
    init_rng, rng = _rng_streams(config.rng_seed)
    state = _RunState(problem, config, strategy)
    X = initialize_population(problem, config, strategy, rng=init_rng)
    pop, n = X.shape
    lower, upper = np.tile(problem.lower, (pop, 1)), np.tile(problem.upper, (pop, 1))

    f, g, infeasible = state.evaluate(X)
    state.record_history(infeasible)

    while state.remaining() > 0:
        m = min(pop, state.remaining())
        draw = rng.random((m, pop))
        draw.reshape(-1)[::pop + 1] = 2.0  # never draw the target itself
        a, b, c = X[draw.argsort(axis=1)[:, :3].T]
        j_rand = rng.integers(0, n, size=m)
        cross = rng.random((m, n)) < config.crossover_cr
        cross[np.arange(m), j_rand] = True

        mutants = a + config.scale_f * (b - c)
        np.minimum(np.maximum(mutants, lower[:m], out=mutants), upper[:m], out=mutants)
        trials = np.where(cross, mutants, X[:m])

        trial = state.evaluate(trials)
        won = state.improved((f[:m], g[:m], infeasible[:m]), trial)
        rows = won[:, None]
        for kept, new, where in zip((X, f, g, infeasible), (trials, *trial),
                                    (rows, won, rows, won)):
            np.copyto(kept[:m], new, where=where)
        state.record_history(infeasible)

    best = state.argbest(f, g, infeasible)
    return state.make_record(X[best], f[best], g[best])


def run_optimizer(problem, config, strategy="none") -> RunRecord:
    fn = pso_run if config.algorithm == "pso" else de_run
    return fn(problem, config, strategy=strategy)
