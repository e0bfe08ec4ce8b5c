import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from framefx.optim import (
    OptimizerConfig,
    _RunState,
    _rng_streams,
    de_run,
    initialize_population,
    pso_run,
    reflect_at_bounds,
    run_optimizer,
)
from framefx.problems import Domain, Problem, SteppedColumnSpec, attach_fx, \
    sphere_problem, stepped_column_problem
from framefx.evaluate import Evaluation, GMaxTracker, deb_compare


def config(algorithm="pso", pop=25, max_fe=500, seed=0, **kw):
    return OptimizerConfig(algorithm=algorithm, population_size=pop,
                           max_fe=max_fe, rng_seed=seed, **kw)


class TestConfig:
    def test_population_floor(self):
        with pytest.raises(ValueError, match="population_size"):
            config(pop=3)

    def test_budget_covers_init(self):
        with pytest.raises(ValueError, match="max_fe"):
            config(pop=25, max_fe=10)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            config(algorithm="annealing")


class TestSphereSmoke:
    @pytest.mark.parametrize("algorithm", ["pso", "de"])
    @pytest.mark.parametrize("seed", range(5))
    def test_reaches_small_values(self, algorithm, seed):
        problem = sphere_problem(dimension=5)
        record = run_optimizer(problem, config(algorithm, pop=25, max_fe=2000,
                                               seed=seed))
        assert record.final_objective < 1e-3
        assert record.final_feasible

    def test_fe_accounting_exact(self):
        problem = sphere_problem(dimension=4)
        for algorithm in ("pso", "de"):
            record = run_optimizer(problem, config(algorithm, pop=20, max_fe=200))
            assert record.fe_used == 200
            assert len(record.best_history) * 20 == record.fe_used

    def test_partial_final_generation(self):
        problem = sphere_problem(dimension=4)
        record = run_optimizer(problem, config("de", pop=20, max_fe=207))
        assert record.fe_used == 207
        length = len(record.best_history)
        assert (length - 1) * 20 < 207 <= length * 20


class TestBoundaryHandling:
    def test_velocity_reversed_on_crossing(self):
        lower = np.zeros(3)
        upper = np.ones(3)
        positions = np.array([[1.4, 0.5, -0.2]])
        velocities = np.array([[0.6, 0.1, -0.3]])
        new_pos, new_vel = reflect_at_bounds(positions, velocities, lower, upper)
        assert new_pos.tolist() == [[1.0, 0.5, 0.0]]
        assert new_vel.tolist() == [[-0.6, 0.1, 0.3]]

    def test_interior_untouched(self):
        pos = np.array([[0.2, 0.8]])
        vel = np.array([[0.1, -0.1]])
        new_pos, new_vel = reflect_at_bounds(pos, vel, np.zeros(2), np.ones(2))
        assert new_pos.tolist() == [[0.2, 0.8]]
        assert new_vel.tolist() == [[0.1, -0.1]]

    def test_zero_velocity_cap_freezes_pso(self):
        # with the velocity cap at zero no particle can move, so the best
        # value never improves past the initial generation
        problem = sphere_problem(dimension=3)
        record = pso_run(problem, config("pso", pop=10, max_fe=100,
                                         v_max_fraction=0.0))
        assert record.best_history == [record.best_history[0]] * len(record.best_history)


class TestStagnation:
    def test_identical_population_is_fixed_point(self):
        # zero-width domains make every particle identical with zero velocity
        problem = sphere_problem(dimension=3, lower=2.0, upper=2.0)
        for algorithm in ("pso", "de"):
            record = run_optimizer(problem, config(algorithm, pop=8, max_fe=80))
            assert record.final_objective == pytest.approx(12.0)
            assert all(b == record.best_history[0] for b in record.best_history)

    def test_degenerate_trial_equals_target_keeps_population(self):
        # with F=0 and CR=0 every trial copies a donor through j_rand only;
        # on a collapsed population the trial equals its target exactly and
        # selection keeps the incumbent
        problem = sphere_problem(dimension=3, lower=1.0, upper=1.0)
        record = de_run(problem, config("de", pop=6, max_fe=60,
                                        scale_f=0.0, crossover_cr=0.0))
        assert all(b == pytest.approx(3.0) for b in record.best_history)


class TestDeterminism:
    @pytest.mark.parametrize("algorithm", ["pso", "de"])
    def test_same_seed_bit_identical(self, algorithm):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=8))
        r1 = run_optimizer(problem, config(algorithm, pop=12, max_fe=240, seed=42))
        r2 = run_optimizer(problem, config(algorithm, pop=12, max_fe=240, seed=42))
        assert dataclasses.asdict(r1) == dataclasses.asdict(r2)

    def test_different_seeds_differ(self):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=8))
        r1 = run_optimizer(problem, config("de", pop=12, max_fe=240, seed=1))
        r2 = run_optimizer(problem, config("de", pop=12, max_fe=240, seed=2))
        assert r1.final_vector != r2.final_vector

    def test_init_and_search_streams_independent(self):
        # however many draws initialization takes, the search stream that
        # follows is the same, so strategies differ only in starting points
        init1, search1 = _rng_streams(9)
        init1.random(997)  # a full-space initialization's worth of draws
        init2, search2 = _rng_streams(9)
        init2.random(4)    # a reduced-space initialization's worth
        assert search1.random(8).tolist() == search2.random(8).tolist()


class TestBestTracking:
    @pytest.mark.parametrize("algorithm", ["pso", "de"])
    def test_best_feasible_never_worsens(self, algorithm):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=10))
        record = run_optimizer(problem, config(algorithm, pop=15, max_fe=600, seed=3))
        seen = [b for b in record.best_history if b is not None]
        assert seen, "expected at least one feasible point"
        assert all(b2 <= b1 for b1, b2 in zip(seen, seen[1:]))

    def test_final_design_reevaluates_identically(self):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=10))
        record = run_optimizer(problem, config("de", pop=15, max_fe=300, seed=5))
        ev = problem.evaluate(np.array(record.final_vector))
        assert ev.objective == record.final_objective
        assert np.array_equal(ev.violations, np.array(record.final_violations))

    def test_best_feasible_survives_overwritten_generation(self):
        # PSO writes later generations into the first generation's arrays;
        # the saved best feasible design must keep its own violations
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=6))
        state = _RunState(problem, config(pop=4, max_fe=8), "none")
        X = np.full((4, 6), 50.0)                     # stiffest: all feasible
        f, g, infeasible = state.evaluate(X)
        f[:], g[:], infeasible[:] = state.evaluate(np.full((4, 6), 3.0))  # all infeasible
        record = state.make_record(X[0], f[0], g[0])
        ev = problem.evaluate(np.array(record.final_vector))
        assert record.final_feasible
        assert record.final_violations == ev.violations.tolist()

    def test_pso_first_generation_best_reported_with_its_violations(self):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=6))
        record = pso_run(problem, config("pso", pop=10, max_fe=11, seed=2))
        assert record.best_history[0] == record.best_history[-1]
        ev = problem.evaluate(np.array(record.final_vector))
        assert record.final_feasible and ev.feasible
        assert record.final_violations == ev.violations.tolist()


class TestDeMonotoneInfeasibility:
    def test_never_increases(self):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=10))
        for seed in range(5):
            record = de_run(problem, config("de", pop=20, max_fe=800, seed=seed))
            h = record.infeasible_fraction_history
            assert all(b <= a + 1e-15 for a, b in zip(h, h[1:]))


class TestInitialization:
    def test_ifx_members_are_monotone_profiles(self):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=12))
        positions = initialize_population(problem, config(pop=30), strategy="ifx")
        assert positions.shape == (30, 12)
        for row in positions:
            assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(row, row[1:]))

    def test_fx_population_lives_in_reduced_space(self):
        problem = attach_fx(stepped_column_problem(SteppedColumnSpec(segment_count=12)))
        positions = initialize_population(problem, config(pop=10), strategy="fx")
        assert positions.shape == (10, 2)
        assert (positions[:, 1] >= 1.0).all()

    def test_none_uniform_over_box(self):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=12))
        positions = initialize_population(problem, config(pop=50), strategy="none")
        assert positions.min() >= 3.0
        assert positions.max() <= 50.0

    def test_strategy_problem_mismatches_rejected(self):
        full = stepped_column_problem(SteppedColumnSpec(segment_count=6))
        reduced = attach_fx(full)
        with pytest.raises(ValueError, match="full-space"):
            initialize_population(reduced, config(), strategy="none")
        with pytest.raises(ValueError, match="reduced"):
            initialize_population(full, config(), strategy="fx")
        with pytest.raises(ValueError, match="unknown strategy"):
            initialize_population(full, config(), strategy="cheat")


def _state_with_snapshot(gmax):
    """A run state whose GMax snapshot is ``gmax``."""
    state = _RunState(sphere_problem(dimension=2), config(pop=4, max_fe=8), "none")
    state.tracker.gmax = gmax
    return state


def _ranked(state, f, g):
    return Evaluation(f, g, state.tracker.normalize(g))


def _sequential_best(ranked):
    """Where a scan that keeps the incumbent on ties ends."""
    def row(i):
        return Evaluation(ranked.objective[i], ranked.violations[i],
                          ranked.normalized_violation[i])

    best = 0
    for i in range(1, len(ranked.objective)):
        if deb_compare(row(best), row(i)) > 0:
            best = i
    return best


@st.composite
def _generations(draw, count):
    """A GMax snapshot and ``count`` same-size generations (f, g) of small
    integers, so that feasibility is mixed and ties are common."""
    p = draw(st.integers(1, 12))
    ints = st.integers(-1, 3)
    snapshot = draw(hnp.arrays(float, 3, elements=st.integers(0, 4)))
    return snapshot, [(draw(hnp.arrays(float, p, elements=ints)),
                       draw(hnp.arrays(float, (p, 3), elements=ints)))
                      for _ in range(count)]


class TestArgbest:
    @given(_generations(1))
    def test_matches_sequential_scan(self, drawn):
        snapshot, [(f, g)] = drawn
        state = _state_with_snapshot(snapshot)
        assert state.argbest(f, g, (g > 0).any(axis=1)) == \
            _sequential_best(_ranked(state, f, g))


class TestSelectionKeys:
    """Selection ranks by the key (infeasible, value); it must give exactly
    the decisions of the pairwise deb_compare on the same snapshot."""

    @given(_generations(2))
    def test_improved_matches_deb_compare(self, drawn):
        snapshot, ((f, g), (new_f, new_g)) = drawn
        state = _state_with_snapshot(snapshot)
        expected = deb_compare(_ranked(state, f, g), _ranked(state, new_f, new_g)) > 0
        held = (f, g, (g > 0).any(axis=1))
        new = (new_f, new_g, (new_g > 0).any(axis=1))
        assert state.improved(held, new).tolist() == np.flatnonzero(expected).tolist()


class TestNonFiniteGuard:
    @pytest.mark.parametrize("algorithm", ["pso", "de"])
    @pytest.mark.parametrize("bad", ["objective", "violation"])
    def test_raises_naming_the_design(self, algorithm, bad):
        base = sphere_problem(dimension=3)

        def evaluate(X):
            objective, g = base.evaluate(X).objective, np.full((len(X), 1), -1.0)
            if bad == "objective":
                objective = np.where(X[:, 0] > 0.0, np.nan, objective)
            else:
                g[X[:, 0] > 0.0] = np.inf
            return Evaluation(objective=objective, violations=g)

        problem = dataclasses.replace(base, evaluate=evaluate, n_constraints=1)
        with pytest.raises(ValueError, match="non-finite objective or violation") as info:
            run_optimizer(problem, config(algorithm, pop=10, max_fe=400, seed=1))
        design = json.loads(str(info.value).split("at design ")[1])
        assert len(design) == 3 and design[0] > 0.0


class TestIndexCoding:
    def test_optimizer_positions_stay_continuous(self):
        # index variables are only rounded inside the evaluation
        pool_problem = _tiny_index_problem()
        record = de_run(pool_problem, config("de", pop=8, max_fe=80, seed=11))
        decoded = pool_problem.decode(np.array(record.final_vector))
        assert all(isinstance(i, int) for i in decoded["indices"])


def _tiny_index_problem():
    from framefx.sections import SectionPool, circular_properties

    pool = SectionPool([circular_properties(r) for r in (2.0, 3.0, 4.0, 5.0)])

    def evaluate(X):
        idx = np.clip(np.rint(X), 0, 3).astype(int)
        return Evaluation(objective=pool.areas[idx].sum(axis=-1),
                          violations=np.zeros(X.shape[:-1] + (0,)))

    def decode(x):
        return {"indices": [min(max(round(float(v)), 0), 3) for v in x]}

    return Problem(
        name="tiny-index",
        domains=tuple(Domain("index", 0, 3, pool=pool) for _ in range(3)),
        n_constraints=0,
        evaluate=evaluate,
        decode=decode,
    )


class TestRecordInvariants:
    @pytest.mark.parametrize("algorithm", ["pso", "de"])
    def test_history_lengths_and_fraction_range(self, algorithm):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=8))
        record = run_optimizer(problem, config(algorithm, pop=10, max_fe=100, seed=2))
        assert len(record.best_history) == len(record.infeasible_fraction_history)
        assert all(0.0 <= f <= 1.0 for f in record.infeasible_fraction_history)

    def test_feasibility_iff_zero_normalized_violation(self):
        # the normalized violation a record carries is taken against the run's GMax
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=8))
        rng = np.random.default_rng(0)
        evs = [problem.evaluate(3.0 + rng.random(8) * 47.0) for _ in range(50)]
        assert {ev.feasible for ev in evs} == {True, False}
        tracker = GMaxTracker()
        tracker.merge([ev.violations for ev in evs])
        for ev in evs:
            assert ev.feasible == (tracker.normalize(ev.violations) == 0.0)
        for algorithm in ("pso", "de"):
            record = run_optimizer(problem, config(algorithm, pop=10, max_fe=100, seed=2))
            assert record.final_feasible == (record.final_normalized_violation == 0.0)
