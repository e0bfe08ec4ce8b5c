import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fea_oracle import expand_discrete as capped_expand_discrete
from framefx.config import BUNDLED_CONFIGS
from framefx.fx import (
    FunctioningRule,
    alpha_max,
    expand_continuous,
    expand_discrete,
    reduced_dimension,
    validate_rules,
)
from framefx.problems import Domain, SteppedColumnSpec, attach_fx, frame_problem, \
    stepped_column_problem
from framefx.sections import SectionPool


def continuous(n):
    """n continuous variables on one interval."""
    return (Domain("continuous", 0.0, 1.0),) * n


class TestAlphaMax:
    def test_stepped_column_value(self):
        # 50 segments of 10 cm, radius range [3, 50]: top height 490
        assert alpha_max(3.0, 50.0, 490.0) == pytest.approx(1.0057581, abs=1e-7)

    def test_degenerate_range_tends_to_one(self):
        assert alpha_max(50.0 * (1 - 1e-12), 50.0, 100.0) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_e(self):
        assert alpha_max(1.0, math.e, 1.0) == pytest.approx(math.e, rel=1e-12)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            alpha_max(50.0, 3.0, 100.0)
        with pytest.raises(ValueError):
            alpha_max(3.0, 50.0, 0.0)

    def test_roundtrip_reaches_floor(self):
        a = alpha_max(3.0, 50.0, 490.0)
        values = expand_continuous(50.0, a, [0.0, 490.0])
        assert values[-1] == pytest.approx(3.0, rel=1e-12)


class TestExpandContinuous:
    def test_alpha_one_is_uniform(self):
        values = expand_continuous(30.0, 1.0, [0.0, 10.0, 20.0])
        assert np.allclose(values, 30.0)

    def test_direct_power_evaluation(self):
        a = 1.0057581
        values = expand_continuous(30.0, a, [0.0, 10.0])
        assert values[0] == 30.0
        assert values[1] == pytest.approx(30.0 / a**10, rel=1e-14)

    @given(st.floats(1.0 + 1e-9, 1.05))
    def test_strictly_decreasing_for_alpha_above_one(self, a):
        values = expand_continuous(30.0, a, [0.0, 5.0, 17.0, 40.0])
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            expand_continuous(-1.0, 1.0, [0.0])
        with pytest.raises(ValueError):
            expand_continuous(1.0, 0.5, [0.0])


class TestExpandDiscrete:
    def test_alpha_one_keeps_base_index(self, small_pool):
        idx = expand_discrete(2, 1.0, [0.0, 10.0, 20.0], small_pool)
        assert idx.tolist() == [2, 2, 2]

    def test_hand_enumerated_cap_case(self, small_pool):
        # areas [10, 20, 30, 40]; base 40, target at the second level decays
        # to 28 -> nearest is 30 (|30-28| < |20-28|), staying under the cap
        heights = [0.0, 10.0]
        a = (40.0 / 28.0) ** (1.0 / 10.0)
        idx = expand_discrete(3, a, heights, small_pool)
        assert idx.tolist() == [3, 2]

    def test_base_smallest_stays_at_floor(self, small_pool):
        idx = expand_discrete(0, 1.004, [0.0, 100.0, 200.0], small_pool)
        assert idx.tolist() == [0, 0, 0]

    def test_exhaustive_monotone_over_grid(self, small_pool):
        heights = np.array([0.0, 40.0, 90.0, 150.0])
        a_max = alpha_max(small_pool.min_area, small_pool.max_area, heights[-1])
        for base in range(len(small_pool)):
            for a in np.linspace(1.0, a_max, 25):
                idx = expand_discrete(base, float(a), heights, small_pool)
                areas = [small_pool[i].area for i in idx]
                assert all(a2 <= a1 for a1, a2 in zip(areas, areas[1:]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           # areas from a short list, so pools often repeat an area
           areas=st.lists(st.sampled_from([5.0, 7.5, 10.0, 12.0, 20.0, 33.0, 60.0]),
                          min_size=2, max_size=12).filter(lambda a: len(set(a)) > 1),
           steps=st.lists(st.floats(1.0, 400.0), min_size=1, max_size=10))
    def test_random_pools_give_monotone_stacks(self, data, areas, steps):
        from conftest import make_shape
        pool = SectionPool([make_shape(f"S{i}", area=a, depth=1.0 + i)
                            for i, a in enumerate(areas)])
        heights = np.concatenate(([0.0], np.cumsum(steps)))
        a_max = alpha_max(pool.min_area, pool.max_area, heights[-1])
        alpha = data.draw(st.one_of(st.just(1.0), st.just(a_max),
                                    st.floats(1.0, a_max)))
        base = data.draw(st.integers(0, len(pool) - 1))
        idx = expand_discrete(base, alpha, heights, pool)
        assert idx[0] == base and ((0 <= idx) & (idx < len(pool))).all()
        stack = [pool[i].area for i in idx]
        assert all(upper <= lower for lower, upper in zip(stack, stack[1:]))
        assert idx.tolist() == capped_expand_discrete(base, alpha, heights, pool).tolist()

    def test_matches_capped_loop_on_bundled_rules(self):
        # every base x 64 alphas of each distinct (pool, heights) column stack
        stacks = {}
        for name in BUNDLED_CONFIGS:
            problem = frame_problem(name)
            for rule in problem.rules:
                pool = problem.domains[rule.replaced_variable_ids[0]].pool
                stacks[pool.label, rule.heights] = pool
        assert len(stacks) == 3
        for (_, heights), pool in stacks.items():
            a_max = alpha_max(pool.min_area, pool.max_area, heights[-1])
            for base in range(len(pool)):
                for alpha in np.linspace(1.0, a_max, 64):
                    assert expand_discrete(base, alpha, heights, pool).tolist() == \
                        capped_expand_discrete(base, alpha, heights, pool).tolist(), \
                        (pool.label, heights, base, alpha)

    def test_bad_base_index(self, small_pool):
        with pytest.raises(IndexError):
            expand_discrete(9, 1.0, [0.0, 10.0], small_pool)


class TestRules:
    def test_heights_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            FunctioningRule((0, 1), (5.0, 10.0))

    def test_heights_strictly_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            FunctioningRule((0, 1, 2), (0.0, 10.0, 10.0))

    def test_alpha_bounds_validation(self):
        # alpha's bounds are a continuous Domain, which rejects an inverted range
        with pytest.raises(ValueError, match="empty domain"):
            Domain("continuous", 1.0, 0.99)

    def test_reduced_dimension_cases(self):
        # one 50-variable profile -> 2 parameters
        rule50 = FunctioningRule(tuple(range(50)), tuple(10.0 * i for i in range(50)))
        assert reduced_dimension([rule50], 50) == 2
        # two 5-group column profiles out of 11 variables -> 5
        r1 = FunctioningRule((0, 1, 2, 3, 4), (0.0, 1.0, 2.0, 3.0, 4.0))
        r2 = FunctioningRule((5, 6, 7, 8, 9), (0.0, 1.0, 2.0, 3.0, 4.0))
        assert reduced_dimension([r1, r2], 11) == 5
        # two 8-group profiles out of 20 variables -> 8 (16 columns -> 4)
        r1 = FunctioningRule(tuple(range(4, 12)), tuple(float(i) for i in range(8)))
        r2 = FunctioningRule(tuple(range(12, 20)), tuple(float(i) for i in range(8)))
        assert reduced_dimension([r1, r2], 20) == 8

    def test_overlapping_rules_rejected(self):
        r1 = FunctioningRule((0, 1, 2), (0.0, 1.0, 2.0))
        r2 = FunctioningRule((2, 3, 4), (0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match=r"^functioning\[1\]: variable 2 is already "
                                             r"in functioning\[0\] \(rules must be "
                                             r"disjoint\)$"):
            validate_rules([r1, r2], continuous(5))

    def test_out_of_range_ids_rejected(self):
        r = FunctioningRule((0, 7), (0.0, 1.0))
        with pytest.raises(ValueError, match=r"^functioning\[0\]: variables \[7\] "
                                             r"outside 0\.\.4$"):
            validate_rules([r], continuous(5))

    def test_every_problem_listed_at_once(self, small_pool, circ_pool):
        domains = continuous(3) + (Domain("index", 0, 3, pool=small_pool),
                                   Domain("index", 0, 3, pool=circ_pool))
        rules = [FunctioningRule((0, 1, 9, 8), (0.0, 1.0, 2.0, 3.0)),
                 FunctioningRule((1, 2), (0.0, 1.0)),
                 FunctioningRule((3, 4, 2), (0.0, 1.0, 2.0))]
        with pytest.raises(ValueError) as err:
            validate_rules(rules, domains)
        assert str(err.value).splitlines() == [
            "functioning[0]: variables [9, 8] outside 0..4",
            "functioning[1]: variable 1 is already in functioning[0] "
            "(rules must be disjoint)",
            "functioning[2]: variable 2 is already in functioning[1] "
            "(rules must be disjoint)",
            "functioning[2]: variables [4, 2] do not share the domain of variable 3",
        ]

    def test_index_rule_across_two_pools_rejected(self, small_pool, circ_pool):
        # same kind and index range, different catalogs
        domains = (Domain("index", 0, 3, pool=small_pool),
                   Domain("index", 0, 3, pool=small_pool),
                   Domain("index", 0, 3, pool=circ_pool))
        validate_rules([FunctioningRule((0, 1), (0.0, 1.0))], domains)
        with pytest.raises(ValueError, match=r"^functioning\[0\]: variables \[2\] do "
                                             r"not share the domain of variable 0$"):
            validate_rules([FunctioningRule((0, 1, 2), (0.0, 1.0, 2.0))], domains)

    def test_continuous_rule_across_two_bounds_rejected(self):
        domains = continuous(2) + (Domain("continuous", 0.0, 2.0),)
        with pytest.raises(ValueError, match=r"^functioning\[0\]: variables \[2\] do "
                                             r"not share the domain of variable 1$"):
            validate_rules([FunctioningRule((1, 0, 2), (0.0, 1.0, 2.0))], domains)

    def test_reduced_dimension_does_not_validate(self):
        # bookkeeping only: callers pass rules validate_rules accepted
        r = FunctioningRule((0, 7), (0.0, 1.0))
        assert reduced_dimension([r, r], 9) == 9


class TestWrapObjective:
    def test_identity_embedding(self):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=10))
        reduced = attach_fx(problem)
        full_const = np.full(10, 30.0)
        ev_full = problem.evaluate(full_const)
        ev_red = reduced.evaluate(np.array([30.0, 1.0]))
        assert ev_red.objective == ev_full.objective
        assert np.array_equal(ev_red.violations, ev_full.violations)

    def test_expansion_respects_box(self):
        spec = SteppedColumnSpec(segment_count=25)
        problem = stepped_column_problem(spec)
        reduced = attach_fx(problem)
        rng = np.random.default_rng(3)
        for _ in range(200):
            xr = reduced.lower + rng.random(2) * (reduced.upper - reduced.lower)
            full = reduced.expand_full(xr)
            assert (full >= spec.radius_min - 1e-12).all()
            assert (full <= spec.radius_max + 1e-12).all()

    def test_reduced_dimension_and_bounds(self):
        problem = stepped_column_problem()
        reduced = attach_fx(problem)
        assert reduced.dimension == 2
        assert reduced.domains[1].lower == 1.0
        assert reduced.domains[1].upper == pytest.approx(1.0057581, abs=1e-7)

    def test_missing_rules_error(self):
        from framefx.problems import sphere_problem
        with pytest.raises(ValueError, match="no functioning rules"):
            attach_fx(sphere_problem())

    def test_rules_checked_against_the_domains(self):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=4))
        domains = problem.domains[:3] + (Domain("continuous", 3.0, 40.0),)
        with pytest.raises(ValueError, match=r"^functioning\[0\]: variables \[3\] do "
                                             r"not share the domain of variable 0$"):
            attach_fx(dataclasses.replace(problem, domains=domains))

    def test_double_reduction_rejected(self):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=5))
        reduced = attach_fx(problem)
        with pytest.raises(ValueError, match="already reduced"):
            attach_fx(reduced)

    @settings(max_examples=30)
    @given(st.floats(3.0, 50.0), st.floats(1.0, 1.0057581))
    def test_reduced_weight_at_least_optimal_envelope(self, base, a):
        # any reduced point evaluates like its expanded full vector
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=8))
        reduced = attach_fx(problem)
        xr = np.array([base, a])
        full = reduced.expand_full(xr)
        assert reduced.evaluate(xr).objective == problem.evaluate(full).objective
