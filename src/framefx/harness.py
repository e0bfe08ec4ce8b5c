"""Experiment protocol: strategies x algorithms x seeded trials, persisted
incrementally so interrupted plans resume without recomputation.

Results layout under <out>/<plan-name>/:
    plan.json                   manifest (problem spec, cell settings, and the
                                package version and fea kernel that wrote it)
    <algo>-<strategy>/<seed>.json   one RunRecord per trial
    summary.csv                 per-cell statistics
    histories/<cell>.csv        mean convergence / infeasible-fraction curves

Seeds are seed_base + trial index, shared across cells so strategy
comparisons are paired, and disjoint within a cell.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError
from .fea import KERNEL_ID
from .fx import STRATEGIES
from .optim import ALGORITHMS, OptimizerConfig, RunRecord, run_optimizer
from .problems import Problem, SteppedColumnSpec, attach_fx, frame_problem, \
    sphere_problem, stepped_column_problem

__all__ = [
    "ExperimentPlan",
    "CellSummary",
    "PlanMismatchError",
    "build_problem",
    "default_cell_settings",
    "run_plan",
    "improvement_vs_none",
    "mean_history",
    "cell_histories",
    "practicality_report",
    "load_records",
]

FALLBACK_POPULATION = {"none": 25, "ifx": 25, "fx": 20}
FALLBACK_MAX_FE = {"none": 5000, "ifx": 5000, "fx": 3000}


class PlanMismatchError(ValueError):
    """An existing results directory was produced by a different plan."""


def build_problem(spec: dict) -> Problem:
    """Reconstruct a problem from its serializable spec (worker-safe); a bad
    spec, or a key its kind does not take or needs, raises ConfigError."""
    kind = spec.get("kind")
    keys = {"stepped-column": {f.name for f in dataclasses.fields(SteppedColumnSpec)},
            "frame": {"config"}, "sphere": {"dimension"}}
    if kind not in keys:
        raise ConfigError([f"unknown problem kind {kind!r}"])
    args = {k: v for k, v in spec.items() if k != "kind"}
    errors = [f"{kind} problem: unknown key {k!r}" for k in sorted(args.keys() - keys[kind])]
    if kind == "frame" and "config" not in args:
        errors.append("frame problem: missing key 'config'")
    if errors:
        raise ConfigError(errors)
    try:
        if kind == "stepped-column":
            return stepped_column_problem(SteppedColumnSpec(**args))
        if kind == "frame":
            return frame_problem(args["config"])
        return sphere_problem(**args)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None


def default_cell_settings(problem: Problem):
    """Per-strategy population sizes and FE budgets for a problem."""
    population = dict(FALLBACK_POPULATION)
    max_fe = dict(FALLBACK_MAX_FE)
    if problem.frame is not None:
        population.update(problem.frame.strategy_defaults.get("population", {}))
        max_fe.update(problem.frame.strategy_defaults.get("max_fe", {}))
    return population, max_fe


@dataclass(frozen=True)
class ExperimentPlan:
    name: str
    problem_spec: dict
    strategies: tuple = STRATEGIES
    algorithms: tuple = ALGORITHMS
    trials: int = 51
    seed_base: int = 0
    population: dict = field(default_factory=lambda: dict(FALLBACK_POPULATION))
    max_fe: dict = field(default_factory=lambda: dict(FALLBACK_MAX_FE))

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValueError(f"unknown strategy {s!r}")
        for kind, names in (("algorithm", self.algorithms), ("strategy", self.strategies)):
            if len(set(names)) < len(names):
                raise ValueError(f"each {kind} may be listed once, got {','.join(names)}")
        for a, s in self.cells():  # each cell must make a valid optimizer run
            OptimizerConfig(algorithm=a, population_size=self.population.get(s, 0),
                            max_fe=self.max_fe.get(s, 0), rng_seed=self.seed_base)

    def cells(self):
        return [(a, s) for a in self.algorithms for s in self.strategies]

    def seeds(self):
        return [self.seed_base + t for t in range(self.trials)]

    def to_manifest(self) -> dict:
        """The plan as JSON reads it back, stamped with the code that wrote it."""
        doc = {"format": 1, "framefx_version": __version__, "fea_kernel": KERNEL_ID}
        for name, value in dataclasses.asdict(self).items():
            doc[_manifest_key(name)] = list(value) if isinstance(value, tuple) else value
        return doc

    @staticmethod
    def from_manifest(doc) -> "ExperimentPlan":
        values = (doc[_manifest_key(f.name)] for f in dataclasses.fields(ExperimentPlan))
        return ExperimentPlan(*(tuple(v) if isinstance(v, list) else v for v in values))


def _manifest_key(field_name) -> str:  # the one field stored under another key
    return "problem" if field_name == "problem_spec" else field_name


@dataclass
class CellSummary:
    algorithm: str
    strategy: str
    trials: int
    completed: int
    failed: int
    population: int
    max_fe: int
    median: float
    mean: float
    best: float
    worst: float
    improvement_vs_none_pct: float | None = None


def cell_name(algorithm, strategy) -> str:
    return f"{algorithm}-{strategy}"


def _atomic_write_json(path: Path, doc):
    _atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=1,
                                        allow_nan=False) + "\n")


def _atomic_write_text(path: Path, text):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def run_trial(problem_spec, algorithm, strategy, seed, population, max_fe) -> RunRecord:
    """Execute one trial (also the process-pool entry point)."""
    problem = build_problem(problem_spec)
    config = OptimizerConfig(algorithm=algorithm, population_size=population,
                             max_fe=max_fe, rng_seed=seed)
    try:
        if strategy == "fx":
            problem = attach_fx(problem)
        return run_optimizer(problem, config, strategy=strategy)
    except Exception as exc:  # aborted trial: recorded as failed, plan continues
        return RunRecord(strategy=strategy, algorithm=algorithm, seed=seed,
                         population_size=population, max_fe=max_fe,
                         problem_name=problem.name, failed=True, error=repr(exc))


def _trial_worker(args):
    *trial, path = args
    _atomic_write_json(path, vars(run_trial(*trial)))


def run_plan(plan: ExperimentPlan, out_root, jobs=1, echo=None):
    """Execute every missing (cell, seed) trial, then refresh the summaries.

    Returns (records, summaries, new_trial_count); ``records`` maps cell
    name to a seed-ordered list of RunRecords.
    """
    echo = echo or (lambda *_: None)
    plan_dir = Path(out_root) / plan.name
    plan_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = plan_dir / "plan.json"
    manifest = plan.to_manifest()
    if manifest_path.exists():
        existing = json.loads(manifest_path.read_text(encoding="utf-8"))
        if existing != manifest:
            raise PlanMismatchError(
                f"{manifest_path} holds a different plan, or one written by other "
                f"code (framefx {existing.get('framefx_version', 'before 0.2.0')}, "
                f"fea kernel {existing.get('fea_kernel', 'dense')}); use a new "
                f"--plan-name or output directory"
            )
    else:
        _atomic_write_json(manifest_path, manifest)

    pending = []
    for algorithm, strategy in plan.cells():
        cell_dir = plan_dir / cell_name(algorithm, strategy)
        cell_dir.mkdir(exist_ok=True)
        for seed in plan.seeds():
            path = cell_dir / f"{seed}.json"
            if not path.exists():
                pending.append((plan.problem_spec, algorithm, strategy, seed,
                                plan.population[strategy], plan.max_fe[strategy], path))

    if pending:
        workers = min(jobs, len(pending))
        echo(f"running {len(pending)} trials (jobs={workers})")
        # a forked pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 \
                else nullcontext() as pool:
            trials = pool.map if workers > 1 else map
            for i, _ in enumerate(trials(_trial_worker, pending), 1):
                echo(f"  trial {i}/{len(pending)} done")

    records = load_records(plan_dir, plan)
    summaries = summarize(plan, records)
    _write_summary_csv(plan_dir / "summary.csv", summaries)
    _write_histories(plan_dir, plan, records)
    return records, summaries, len(pending)


def load_records(plan_dir, plan: ExperimentPlan):
    records = {}
    for algorithm, strategy in plan.cells():
        cell = cell_name(algorithm, strategy)
        cell_records = []
        for seed in plan.seeds():
            path = Path(plan_dir) / cell / f"{seed}.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            cell_records.append(RunRecord(**doc))
        records[cell] = cell_records
    return records


def summarize(plan: ExperimentPlan, records) -> list:
    summaries = []
    for algorithm, strategy in plan.cells():
        cell = cell_name(algorithm, strategy)
        recs = records[cell]
        finals = [r.final_objective for r in recs if not r.failed and r.final_feasible]
        failed = sum(r.failed for r in recs)
        stats = (np.median(finals), np.mean(finals), np.min(finals), np.max(finals)) \
            if finals else (float("nan"),) * 4
        summary = CellSummary(
            algorithm=algorithm, strategy=strategy, trials=len(recs),
            completed=len(recs) - failed, failed=failed,
            population=plan.population[strategy], max_fe=plan.max_fe[strategy],
            median=float(stats[0]), mean=float(stats[1]),
            best=float(stats[2]), worst=float(stats[3]),
        )
        summaries.append(summary)
    none_cells = {s.algorithm: s for s in summaries if s.strategy == "none"}
    for s in summaries:
        if s.strategy != "none" and s.algorithm in none_cells:
            s.improvement_vs_none_pct = improvement_vs_none(s, none_cells[s.algorithm])
    return summaries


def improvement_vs_none(summary_cell: CellSummary, summary_none: CellSummary) -> float:
    """Median improvement relative to the unfunctioned run of the same
    algorithm, in percent; negative when the cell is worse."""
    return float(100.0 * (summary_none.median - summary_cell.median)
                 / summary_none.median)


def mean_history(cell_records):
    """Pointwise mean curves over one cell's trials, aligned by FE count.

    Returns (fe, mean_best, mean_infeasible_fraction).  The best-objective
    mean ignores trials that have not yet found a feasible point (None
    entries); a point is NaN only while no trial has one.
    """
    live = [r for r in cell_records if not r.failed]
    if not live:
        raise ValueError("cell has no completed records")
    lengths = {len(r.best_history) for r in live}
    if len(lengths) != 1:
        raise ValueError(f"ragged histories in cell: lengths {sorted(lengths)}")
    length = lengths.pop()
    pop = live[0].population_size
    max_fe = live[0].max_fe
    fe = np.minimum((np.arange(length) + 1) * pop, max_fe)
    best = np.array([[np.nan if b is None else b for b in r.best_history]
                     for r in live])
    infeas = np.array([r.infeasible_fraction_history for r in live])
    with warnings.catch_warnings():
        # all-NaN generations (no trial feasible yet) legitimately average to NaN
        warnings.simplefilter("ignore", category=RuntimeWarning)
        mean_best = np.nanmean(best, axis=0) if length else np.zeros(0)
    return fe, mean_best, infeas.mean(axis=0)


def cell_histories(plan: ExperimentPlan, records) -> dict:
    """``mean_history`` of each cell with a completed trial, by cell name."""
    histories = {}
    for algorithm, strategy in plan.cells():
        cell = cell_name(algorithm, strategy)
        try:
            histories[cell] = mean_history(records[cell])
        except ValueError:  # no completed trial in this cell
            continue
    return histories


def practicality_report(record: RunRecord, problem: Problem):
    """Per-column-stack monotonicity of a final frame design.

    For each declared stack: whether areas are non-increasing with height,
    the first offending (lower, upper) group pair if not, and the area
    profile normalized by the base area for plotting.
    """
    if problem.frame is None:
        raise ValueError("practicality_report needs a frame problem with "
                         "declared column stacks")
    areas = record.final_decoded.get("areas_cm2")
    if areas is None:
        raise ValueError("record does not carry decoded group areas")
    reports = []
    for rule in problem.rules:
        stack = [areas[g] for g in rule.replaced_variable_ids]
        violation = None
        for k in range(1, len(stack)):
            if stack[k] > stack[k - 1]:
                violation = (rule.replaced_variable_ids[k - 1],
                             rule.replaced_variable_ids[k])
                break
        reports.append({
            "group_ids": list(rule.replaced_variable_ids),
            "heights_cm": list(rule.heights),
            "areas_cm2": [float(a) for a in stack],
            "normalized": [float(a / stack[0]) for a in stack],
            "monotone": violation is None,
            "violation_pair": violation,
        })
    return reports


def _write_summary_csv(path, summaries):
    lines = [",".join(["cell"] + [f.name for f in dataclasses.fields(CellSummary)])]
    for s in summaries:
        values = [cell_name(s.algorithm, s.strategy), *dataclasses.astuple(s)]
        lines.append(",".join("" if v is None else str(v) for v in values))
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def _write_histories(plan_dir, plan, records):
    hist_dir = Path(plan_dir) / "histories"
    hist_dir.mkdir(exist_ok=True)
    for cell, (fe, best, infeas) in cell_histories(plan, records).items():
        lines = ["fe,best,infeasible_fraction"]
        for k in range(fe.size):
            b = "" if np.isnan(best[k]) else repr(float(best[k]))
            lines.append(f"{int(fe[k])},{b},{float(infeas[k])!r}")
        _atomic_write_text(hist_dir / f"{cell}.csv", "\n".join(lines) + "\n")
