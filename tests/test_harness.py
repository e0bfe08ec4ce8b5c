import json
import shutil

import numpy as np
import pytest

import framefx
from framefx import harness
from framefx.fea import KERNEL_ID
from framefx.harness import (
    CellSummary,
    ExperimentPlan,
    PlanMismatchError,
    build_problem,
    improvement_vs_none,
    mean_history,
    practicality_report,
    run_plan,
)
from framefx.config import ConfigError
from framefx.evaluate import Evaluation
from framefx.fx import STRATEGIES
from framefx.optim import RunRecord
from framefx.problems import attach_fx, frame_problem


def tiny_plan(name="t", trials=1, strategies=("none",), algorithms=("pso", "de"),
              segments=6, pop=8, fe=64, seed_base=0):
    return ExperimentPlan(
        name=name,
        problem_spec={"kind": "stepped-column", "segment_count": segments},
        strategies=strategies,
        algorithms=algorithms,
        trials=trials,
        seed_base=seed_base,
        population={s: pop for s in ("none", "ifx", "fx")},
        max_fe={s: fe for s in ("none", "ifx", "fx")},
    )


class TestRunPlan:
    def test_cell_count(self, tmp_path):
        records, summaries, n_new = run_plan(tiny_plan(), tmp_path)
        assert n_new == 2
        assert sorted(records) == ["de-none", "pso-none"]
        assert all(len(v) == 1 for v in records.values())
        assert len(summaries) == 2

    def test_resume_recomputes_nothing(self, tmp_path):
        plan = tiny_plan(trials=2)
        run_plan(plan, tmp_path)
        first = {p: p.read_bytes() for p in tmp_path.rglob("*.json")}
        _, _, n_new = run_plan(plan, tmp_path)
        assert n_new == 0
        for p, content in first.items():
            assert p.read_bytes() == content

    def test_reruns_are_byte_identical(self, tmp_path):
        plan = tiny_plan(trials=2)
        run_plan(plan, tmp_path / "a")
        run_plan(plan, tmp_path / "b")
        files_a = sorted((tmp_path / "a").rglob("*"), key=str)
        for fa in files_a:
            if fa.is_file():
                fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
                assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_plan_mismatch_rejected(self, tmp_path):
        run_plan(tiny_plan(trials=1), tmp_path)
        with pytest.raises(PlanMismatchError):
            run_plan(tiny_plan(trials=2), tmp_path)

    def test_manifest_round_trips_through_json(self):
        plan = tiny_plan(trials=3, strategies=("fx", "none"), algorithms=("de",),
                         seed_base=7)
        manifest = plan.to_manifest()
        assert json.loads(json.dumps(manifest)) == manifest  # lists, as JSON reads back
        assert manifest["problem"] == plan.problem_spec
        assert ExperimentPlan.from_manifest(json.loads(json.dumps(manifest))) == plan

    def test_plan_from_other_code_rejected(self, tmp_path):
        # a plan written before the manifest carried its code identity (the
        # dense-kernel releases) must not have banded-kernel records mixed in
        plan = tiny_plan(trials=1)
        run_plan(plan, tmp_path)
        manifest_path = tmp_path / plan.name / "plan.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["framefx_version"] == framefx.__version__
        assert manifest["fea_kernel"] == KERNEL_ID
        del manifest["framefx_version"], manifest["fea_kernel"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PlanMismatchError, match="before 0.2.0"):
            run_plan(tiny_plan(trials=2), tmp_path)

    def test_seeds_shared_across_cells_disjoint_within(self, tmp_path):
        plan = tiny_plan(trials=3, strategies=("none", "fx"), algorithms=("de",))
        records, _, _ = run_plan(plan, tmp_path)
        for cell, recs in records.items():
            seeds = [r.seed for r in recs]
            assert seeds == [0, 1, 2]

    def test_failed_trial_recorded_and_plan_continues(self, tmp_path, monkeypatch):
        real_build = harness.build_problem

        def flaky_build(spec):
            problem = real_build(spec)
            orig = problem.evaluate

            def evaluate(x):
                ev = orig(x)
                if ev.objective < 1e9 and problem.name.endswith("-6"):
                    raise RuntimeError("sensor glitch")
                return ev

            problem.evaluate = evaluate
            return problem

        monkeypatch.setattr(harness, "build_problem", flaky_build)
        records, summaries, _ = run_plan(tiny_plan(trials=2), tmp_path)
        assert all(r.failed for recs in records.values() for r in recs)
        assert all(s.failed == 2 and s.completed == 0 for s in summaries)
        assert all(np.isnan(s.median) for s in summaries)

    def test_non_finite_objective_fails_the_trial_not_the_plan(self, tmp_path,
                                                               monkeypatch):
        real_build = harness.build_problem

        def nan_build(spec):
            problem = real_build(spec)
            orig = problem.evaluate
            problem.evaluate = lambda x: Evaluation(objective=np.nan,
                                                    violations=orig(x).violations)
            return problem

        monkeypatch.setattr(harness, "build_problem", nan_build)
        records, summaries, _ = run_plan(tiny_plan(trials=2), tmp_path)
        failed = [r for recs in records.values() for r in recs]
        assert len(failed) == 4 and all(r.failed for r in failed)
        assert all("non-finite objective or violation at design [" in r.error
                   for r in failed)
        assert (tmp_path / "t" / "summary.csv").exists()

    def test_final_designs_reevaluate_identically(self, tmp_path):
        plan = tiny_plan(trials=2, strategies=("none", "fx"), algorithms=("pso", "de"))
        records, _, _ = run_plan(plan, tmp_path)
        problem = build_problem(plan.problem_spec)
        for recs in records.values():
            for r in recs:
                ev = problem.evaluate(np.array(r.final_vector))
                assert ev.objective == r.final_objective
                assert ev.violations.tolist() == r.final_violations

    def test_process_pool_capped_at_pending_trials(self, tmp_path, monkeypatch):
        started = []

        class FakePool:  # runs in process and records the pool size asked for
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        _, _, n_new = run_plan(tiny_plan(trials=3, algorithms=("de",)),
                               tmp_path / "three", jobs=500)
        assert n_new == 3 and started == [3]
        _, _, n_new = run_plan(tiny_plan(trials=1, algorithms=("de",)),
                               tmp_path / "one", jobs=500)
        assert n_new == 1 and started == [3]  # a single trial runs without a pool

    def test_interrupted_plan_resumes_to_the_same_bytes(self, tmp_path):
        plan = ExperimentPlan(
            name="f8", problem_spec={"kind": "frame", "config": "frame-8story-1bay"},
            trials=3, population={s: 8 for s in STRATEGIES},
            max_fe={s: 40 for s in STRATEGIES})
        run_plan(plan, tmp_path / "whole", jobs=1)
        shutil.copytree(tmp_path / "whole", tmp_path / "cut")
        cut = tmp_path / "cut" / "f8"
        for removed in ("pso-none/0.json", "de-ifx/2.json", "de-fx/1.json",
                        "summary.csv"):
            (cut / removed).unlink()
        _, _, n_new = run_plan(plan, tmp_path / "cut", jobs=2)
        assert n_new == 3
        whole = sorted(p.relative_to(tmp_path / "whole")
                       for p in (tmp_path / "whole").rglob("*") if p.is_file())
        assert whole == sorted(p.relative_to(tmp_path / "cut")
                               for p in (tmp_path / "cut").rglob("*") if p.is_file())
        for rel in whole:
            assert (tmp_path / "cut" / rel).read_bytes() == \
                (tmp_path / "whole" / rel).read_bytes(), rel

    def test_parallel_jobs_match_serial(self, tmp_path):
        plan = tiny_plan(trials=2, algorithms=("de",))
        run_plan(plan, tmp_path / "serial", jobs=1)
        run_plan(plan, tmp_path / "parallel", jobs=2)
        for fa in sorted((tmp_path / "serial").rglob("*.json"), key=str):
            fb = tmp_path / "parallel" / fa.relative_to(tmp_path / "serial")
            assert fa.read_bytes() == fb.read_bytes()


class TestBuildProblem:
    @pytest.mark.parametrize("spec, message", [
        ({"kind": "stepped-column", "segmnt_count": 10},
         "stepped-column problem: unknown key 'segmnt_count'"),
        ({"kind": "sphere", "dimensions": 3}, "sphere problem: unknown key 'dimensions'"),
        ({"kind": "frame"}, "frame problem: missing key 'config'"),
        ({"kind": "frame", "config": "frame-8story-1bay", "segment_count": 10},
         "frame problem: unknown key 'segment_count'"),
        ({"kind": "truss"}, "unknown problem kind 'truss'"),
    ])
    def test_unknown_or_missing_key_is_a_config_error(self, spec, message):
        with pytest.raises(ConfigError) as info:
            build_problem(spec)
        assert info.value.problems == [message]

    def test_kind_alone_builds_the_defaults(self):
        assert build_problem({"kind": "sphere"}).name == "sphere-5"
        assert build_problem({"kind": "stepped-column"}).name == "stepped-column-50"


class TestImprovement:
    def _summary(self, median, strategy="fx"):
        return CellSummary(algorithm="de", strategy=strategy, trials=51,
                           completed=51, failed=0, population=25, max_fe=1000,
                           median=median, mean=median, best=median, worst=median)

    def test_identical_medians(self):
        assert improvement_vs_none(self._summary(200.0), self._summary(200.0, "none")) == 0.0

    def test_ten_percent(self):
        assert improvement_vs_none(self._summary(180.0), self._summary(200.0, "none")) \
            == pytest.approx(10.0)

    def test_worse_cell_is_negative(self):
        assert improvement_vs_none(self._summary(220.0), self._summary(200.0, "none")) < 0


def record_with(best, infeasible, pop=10, fe=None, **kw):
    defaults = dict(strategy="none", algorithm="de", seed=0, population_size=pop,
                    max_fe=fe or pop * len(best), fe_used=fe or pop * len(best),
                    best_history=best, infeasible_fraction_history=infeasible,
                    final_vector=[1.0], final_reduced_vector=None,
                    final_decoded={}, final_objective=best[-1] or 0.0,
                    final_violations=[], final_feasible=True,
                    final_normalized_violation=0.0, problem_name="x")
    defaults.update(kw)
    return RunRecord(**defaults)


class TestSummarize:
    @pytest.mark.parametrize("count", range(1, 8))
    def test_median_matches_numpy_bit_for_bit(self, count):
        # the digests pin the median of one and two trials per cell only; an
        # infeasible and a failed trial stay out of the statistics
        rng = np.random.default_rng(count)
        plan = tiny_plan(algorithms=("de",))
        left_out = [record_with([1e9], [1.0], final_feasible=False),
                    record_with([-1e9], [0.0], failed=True)]
        for _ in range(200):
            finals = (rng.normal(size=count) * 10.0 ** rng.integers(-3, 7, count)).tolist()
            records = {"de-none": left_out + [record_with([f], [0.0]) for f in finals]}
            (summary,) = harness.summarize(plan, records)
            assert summary.median.hex() == float(np.median(finals)).hex()


class TestMeanHistory:
    def test_single_record_is_identity(self):
        r = record_with([5.0, 4.0, 3.0], [0.5, 0.2, 0.0])
        fe, best, infeas = mean_history([r])
        assert best.tolist() == [5.0, 4.0, 3.0]
        assert infeas.tolist() == [0.5, 0.2, 0.0]
        assert fe.tolist() == [10, 20, 30]

    def test_two_constant_histories_average(self):
        r1 = record_with([10.0, 10.0], [0.0, 0.0])
        r2 = record_with([20.0, 20.0], [1.0, 1.0])
        _, best, infeas = mean_history([r1, r2])
        assert best.tolist() == [15.0, 15.0]
        assert infeas.tolist() == [0.5, 0.5]

    def test_none_entries_ignored_until_feasible(self):
        r1 = record_with([None, 4.0], [1.0, 0.5])
        r2 = record_with([6.0, 2.0], [0.0, 0.0])
        _, best, _ = mean_history([r1, r2])
        assert best.tolist() == [6.0, 3.0]

    def test_ragged_histories_guarded(self):
        r1 = record_with([1.0, 1.0], [0.0, 0.0])
        r2 = record_with([1.0], [0.0])
        with pytest.raises(ValueError, match="ragged"):
            mean_history([r1, r2])

    def test_final_partial_generation_fe_axis(self):
        r = record_with([5.0, 4.0, 3.0], [0.1, 0.1, 0.0], pop=10, fe=27)
        fe, _, _ = mean_history([r])
        assert fe.tolist() == [10, 20, 27]


class TestPracticality:
    def test_fx_design_is_monotone(self, tmp_path):
        problem = frame_problem("frame-8story-1bay")
        reduced = attach_fx(problem)
        from framefx.optim import OptimizerConfig, de_run
        record = de_run(reduced, OptimizerConfig("de", 8, 64, rng_seed=0),
                        strategy="fx")
        reports = practicality_report(record, problem)
        assert len(reports) == 1
        assert reports[0]["monotone"]
        assert reports[0]["normalized"][0] == 1.0

    def test_violating_assignment_reported_with_pair(self):
        problem = frame_problem("frame-8story-1bay")
        decoded = problem.decode(np.array([5.0, 30.0, 6.0, 6.0, 1, 1, 1, 1]))
        record = record_with([1.0], [0.0], final_decoded=decoded)
        reports = practicality_report(record, problem)
        assert not reports[0]["monotone"]
        assert reports[0]["violation_pair"] == (0, 1)

    def test_requires_frame_problem(self):
        from framefx.problems import stepped_column_problem
        record = record_with([1.0], [0.0])
        with pytest.raises(ValueError, match="frame problem"):
            practicality_report(record, stepped_column_problem())


class TestPlanValidation:
    def test_trials_floor(self):
        with pytest.raises(ValueError, match="trials"):
            tiny_plan(trials=0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            ExperimentPlan(name="x", problem_spec={"kind": "sphere"},
                           strategies=("magic",), algorithms=("de",),
                           population={"magic": 5}, max_fe={"magic": 50})

    def test_missing_budget(self):
        with pytest.raises(ValueError, match="population_size must be >= 4"):
            ExperimentPlan(name="x", problem_spec={"kind": "sphere"},
                           strategies=("none",), algorithms=("de",),
                           population={}, max_fe={})


class TestDeMeanInfeasibleCurve:
    def test_monotone_non_increasing(self, tmp_path):
        plan = tiny_plan(trials=3, strategies=("none",), algorithms=("de",),
                         segments=10, pop=10, fe=200)
        records, _, _ = run_plan(plan, tmp_path)
        _, _, infeas = mean_history(records["de-none"])
        assert all(b <= a + 1e-15 for a, b in zip(infeas, infeas[1:]))
