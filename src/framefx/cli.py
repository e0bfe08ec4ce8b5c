"""Command-line entry point.

Subcommands: run (experiment protocol), interactions (variable-interaction
matrix), plot (figures from a results tree), validate (config diagnostics),
sections (catalog summary).  Exit codes: 0 success, 1 configuration error,
2 runtime failure.  The default output root is $FRAMEFX_OUT or ./results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import BUNDLED_CONFIGS, ConfigError
from .fea import StructuralInstabilityError, analyze
from .fx import STRATEGIES, reduced_dimension
from .grouping import DEFAULT_ETA, interaction_matrix, render_matrix
from .harness import ExperimentPlan, PlanMismatchError, build_problem, cell_histories, \
    cell_name, default_cell_settings, load_records, practicality_report, run_plan
from .optim import ALGORITHMS
from .problems import SteppedColumnSpec
from .sections import SectionTableError, load_pool
from .svgplot import line_chart

PROBLEM_OPTIONS = {  # built-in kind: (flag, spec key, type, default, help) of each option
    "stepped-column": [
        ("--segments", "segment_count", int, SteppedColumnSpec.segment_count,
         "stepped column: number of segments"),
        ("--segment-length", "segment_length", float, SteppedColumnSpec.segment_length,
         "stepped column: segment length, cm"),
        ("--tip-load", "tip_load", float, SteppedColumnSpec.tip_load,
         "stepped column: lateral tip load, kN"),
        ("--allowable-stress", "allowable_stress", float, SteppedColumnSpec.allowable_stress,
         "stepped column: allowable bending stress, kN/cm^2"),
        ("--density", "density", float, SteppedColumnSpec.density,
         "stepped column: material density, kg/cm^3"),
    ],
    "sphere": [("--dimension", "dimension", int, 5, "sphere: dimension")],
}


def _add_problem_args(p, with_seed=True):
    p.add_argument("--problem", choices=tuple(PROBLEM_OPTIONS),
                   help="built-in problem (use --config for frames)")
    p.add_argument("--config", help="frame config path or bundled name: "
                   + ", ".join(sorted(BUNDLED_CONFIGS)))
    for options in PROBLEM_OPTIONS.values():  # in args, by spec key, only when given
        for flag, key, type_, _, text in options:
            p.add_argument(flag, dest=key, type=type_, default=argparse.SUPPRESS, help=text)
    if with_seed:
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")


def _problem_spec(args) -> dict:
    if args.config and args.problem:
        raise ConfigError([f"--problem {args.problem} and --config {args.config}: give one"])
    kind = "frame" if args.config else args.problem or "stepped-column"
    errors = [f"{flag} applies to a {owner} problem, not a {kind} one"
              for owner, options in PROBLEM_OPTIONS.items() if owner != kind
              for flag, key, *_ in options if key in args]
    if errors:
        raise ConfigError(errors)
    if kind == "frame":
        return {"kind": "frame", "config": args.config}
    return {"kind": kind, **{key: getattr(args, key, default)
                             for _, key, _, default, _ in PROBLEM_OPTIONS[kind]}}


def _out_root(args) -> Path:
    return Path(args.out or os.environ.get("FRAMEFX_OUT") or "results")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framefx",
        description="Steel frame design optimization with variable functioning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment protocol")
    run_p.set_defaults(handler=cmd_run)
    _add_problem_args(run_p)
    run_p.add_argument("--algo", default="all", help="pso, de, or all")
    run_p.add_argument("--strategy", default="all",
                       help="comma list of none,ifx,fx, or all")
    run_p.add_argument("--trials", type=int, default=51, help="trials per cell")
    run_p.add_argument("--pop", type=int, help="population size for every cell")
    run_p.add_argument("--max-fe", type=int, help="FE budget for every cell")
    run_p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="parallel trial workers")
    run_p.add_argument("--out", help="output root (default $FRAMEFX_OUT or ./results)")
    run_p.add_argument("--plan-name", help="results subdirectory (default: problem name)")

    int_p = sub.add_parser("interactions", help="build the variable-interaction matrix")
    int_p.set_defaults(handler=cmd_interactions)
    _add_problem_args(int_p, with_seed=False)
    int_p.add_argument("--eta", type=float, default=DEFAULT_ETA,
                       help="relative adjacency threshold")
    int_p.add_argument("--out", help="output root (default $FRAMEFX_OUT or ./results)")

    plot_p = sub.add_parser("plot", help="emit figures for finished plans")
    plot_p.set_defaults(handler=cmd_plot)
    plot_p.add_argument("results", help="a plan directory or a results root")

    val_p = sub.add_parser("validate", help="check a config and report its design space")
    val_p.set_defaults(handler=cmd_validate)
    _add_problem_args(val_p, with_seed=False)

    sec_p = sub.add_parser("sections", help="summarize a section catalog")
    sec_p.set_defaults(handler=cmd_sections)
    sec_p.add_argument("--pool", default="w-all",
                       help="bundled pool name or a CSV path")
    return parser


def cmd_run(args) -> int:
    spec = _problem_spec(args)
    problem = build_problem(spec)  # validates config before touching the output tree
    if args.jobs < 1:
        raise ConfigError([f"--jobs must be >= 1, got {args.jobs}"])

    algorithms = ALGORITHMS if args.algo == "all" else tuple(args.algo.split(","))
    strategies = STRATEGIES if args.strategy == "all" \
        else tuple(args.strategy.split(","))
    population, max_fe = default_cell_settings(problem)
    if args.pop is not None:
        population = {s: args.pop for s in population}
    if args.max_fe is not None:
        max_fe = {s: args.max_fe for s in max_fe}

    try:  # checked before anything is written
        plan = ExperimentPlan(
            name=args.plan_name or problem.name,
            problem_spec=spec,
            strategies=strategies,
            algorithms=algorithms,
            trials=args.trials,
            seed_base=args.seed,
            population=population,
            max_fe=max_fe,
        )
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    out_root = _out_root(args)
    records, summaries, n_new = run_plan(plan, out_root, jobs=args.jobs,
                                         echo=lambda msg: print(msg))
    print(f"resumed: {n_new} new trials" if n_new == 0
          else f"completed {n_new} new trials")
    print(f"results: {out_root / plan.name}")
    print()
    header = (f"{'cell':<12}{'completed':>10}{'failed':>8}{'median':>14}{'mean':>14}"
              f"{'best':>14}{'vs none %':>12}")
    print(header)
    print("-" * len(header))
    for s in summaries:
        imp = "" if s.improvement_vs_none_pct is None \
            else f"{s.improvement_vs_none_pct:.2f}"
        print(f"{cell_name(s.algorithm, s.strategy):<12}{s.completed:>10}{s.failed:>8}"
              f"{s.median:>14.4f}{s.mean:>14.4f}{s.best:>14.4f}{imp:>12}")
    if all(s.failed == s.trials for s in summaries):
        print("error: every trial failed; see the records' error field",
              file=sys.stderr)
        return 2
    return 0


def cmd_interactions(args) -> int:
    problem = build_problem(_problem_spec(args))
    probe = problem.probe
    try:  # evaluation failures are RuntimeErrors and pass through
        matrix = interaction_matrix(probe.f, probe.lower, probe.upper, eta=args.eta)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    out_dir = _out_root(args) / f"{problem.name}-interactions"
    paths = render_matrix(matrix, out_dir)
    n_edges = int(matrix.adjacency.sum() - matrix.n)  # off-diagonal, both directions
    print(f"interaction matrix: n={matrix.n}, fe_cost={matrix.fe_cost}, "
          f"interacting pairs={n_edges // 2}")
    print(f"wrote {paths['csv']}")
    print(f"wrote {paths['svg']}")
    return 0


def _plan_dirs(root: Path):
    if (root / "plan.json").exists():
        return [root]
    return sorted(p.parent for p in root.glob("*/plan.json"))


def cmd_plot(args) -> int:
    root = Path(args.results)
    plans = _plan_dirs(root) if root.exists() else []
    if not plans:
        raise ConfigError([f"no finished plans under {root}"])
    loaded = []
    for plan_dir in plans:  # every plan is read and checked before any figure is written
        plan = ExperimentPlan.from_manifest(
            json.loads((plan_dir / "plan.json").read_text(encoding="utf-8")))
        loaded.append((plan_dir, plan, load_records(plan_dir, plan),
                       build_problem(plan.problem_spec)))
    for plan_dir, plan, records, problem in loaded:
        fig_dir = plan_dir / "figures"
        fig_dir.mkdir(exist_ok=True)

        histories = cell_histories(plan, records).items()
        conv = [(cell, fe.tolist(), best.tolist()) for cell, (fe, best, _) in histories]
        infea = [(cell, fe.tolist(), frac.tolist()) for cell, (fe, _, frac) in histories]
        line_chart(fig_dir / "convergence.svg", conv,
                   title=f"{plan.name}: mean best feasible objective",
                   xlabel="function evaluations", ylabel="objective")
        line_chart(fig_dir / "infeasible.svg", infea,
                   title=f"{plan.name}: mean infeasible fraction",
                   xlabel="function evaluations", ylabel="infeasible fraction")
        written = ["figures/convergence.svg", "figures/infeasible.svg"]

        if problem.frame is not None and problem.rules:
            profiles = []
            csv_lines = ["cell,stack,group_id,height_cm,area_cm2,normalized"]
            for algorithm, strategy in plan.cells():
                cell = cell_name(algorithm, strategy)
                done = [r for r in records[cell]
                        if not r.failed and r.final_feasible]
                if not done:
                    continue
                best = min(done, key=lambda r: r.final_objective)
                for k, rep in enumerate(practicality_report(best, problem)):
                    profiles.append((f"{cell}/stack{k}", rep["heights_cm"],
                                     rep["normalized"]))
                    for g, h, a, nrm in zip(rep["group_ids"], rep["heights_cm"],
                                            rep["areas_cm2"], rep["normalized"]):
                        csv_lines.append(f"{cell},{k},{g},{h!r},{a!r},{nrm!r}")
            if profiles:
                line_chart(fig_dir / "column_profiles.svg", profiles,
                           title=f"{plan.name}: column area profiles (base = 1)",
                           xlabel="height above base, cm", ylabel="area / base area")
                (fig_dir / "profiles.csv").write_text(
                    "\n".join(csv_lines) + "\n", encoding="utf-8")
                written += ["figures/column_profiles.svg", "figures/profiles.csv"]
        for w in written:
            print(f"wrote {plan_dir / w}")
    return 0


def cmd_validate(args) -> int:
    spec = _problem_spec(args)
    problem = build_problem(spec)  # a bad config raises ConfigError with fields
    if spec["kind"] == "frame":
        print(f"config ok: {problem.name}")
    n = problem.dimension
    if problem.rules:
        print(f"{n} variables, {reduced_dimension(problem.rules, n)} under functioning")
    else:
        print(f"{n} variables, no functioning rules declared")
    if problem.frame is not None:
        ctx = problem.frame
        fams = ", ".join(sorted(ctx.constraint_set.families))
        print(f"constraint families: {fams}")
        largest = tuple(pool[-1] for pool in ctx.pools)
        result = analyze(ctx.model, largest)  # probe at the stiffest sections
        ev = problem.evaluate(problem.upper)
        print(f"probe at largest sections: max lateral displacement "
              f"{result.max_lateral_displacement:.4f} cm, "
              f"{'feasible' if ev.feasible else 'infeasible'}, "
              f"weight {ev.objective:.1f} kg")
    return 0


def cmd_sections(args) -> int:
    pool = load_pool(args.pool)
    print(f"pool {pool.label or args.pool}: {len(pool)} shapes")
    print(f"area range: {pool.min_area:.2f} .. {pool.max_area:.2f} cm^2")
    print(f"lightest: {pool.names[0]}  heaviest: {pool.names[-1]}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, PlanMismatchError, SectionTableError,
            StructuralInstabilityError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
