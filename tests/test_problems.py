import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framefx.config import ConfigError, load_frame_config
from framefx.fea import frame_weight
from framefx.problems import (
    SteppedColumnSpec,
    attach_fx,
    frame_problem,
    stepped_column_problem,
)


class TestSteppedColumn:
    def test_uniform_weight_closed_form(self):
        spec = SteppedColumnSpec()
        problem = stepped_column_problem(spec)
        ev = problem.evaluate(np.full(50, 30.0))
        assert ev.objective == pytest.approx(0.00785 * 10 * 50 * math.pi * 900, rel=1e-12)

    def test_base_stress_closed_form(self):
        spec = SteppedColumnSpec()
        problem = stepped_column_problem(spec)
        ev = problem.evaluate(np.full(50, 30.0))
        sigma_base = ev.violations[0] + spec.allowable_stress
        assert sigma_base == pytest.approx(4 * 10 * 500 / (math.pi * 27000), rel=1e-12)

    def test_doubling_radii_divides_stress_by_eight(self):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=12))
        r = np.linspace(5.0, 9.0, 12)
        s1 = problem.evaluate(r).violations + 16.0
        s2 = problem.evaluate(2 * r).violations + 16.0
        assert np.allclose(s2, s1 / 8.0, rtol=1e-12)

    @settings(max_examples=25)
    @given(st.integers(0, 9), st.floats(3.5, 49.0))
    def test_stress_monotone_in_own_radius(self, i, r_i):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=10))
        base = np.full(10, 20.0)
        lower = base.copy()
        lower[i] = r_i
        higher = base.copy()
        higher[i] = r_i + 0.5
        g_low = problem.evaluate(lower).violations
        g_high = problem.evaluate(higher).violations
        assert g_high[i] < g_low[i]
        mask = np.arange(10) != i
        assert np.array_equal(g_high[mask], g_low[mask])

    def test_validation(self):
        with pytest.raises(ValueError):
            SteppedColumnSpec(segment_count=0)
        with pytest.raises(ValueError):
            SteppedColumnSpec(radius_min=10.0, radius_max=3.0)

    def test_auto_rule_heights(self):
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=5))
        rule = problem.rules[0]
        assert rule.heights == (0.0, 10.0, 20.0, 30.0, 40.0)
        assert attach_fx(problem).dimension == 2


class TestFrameProblems:
    def test_8story_variable_count(self):
        problem = frame_problem("frame-8story-1bay")
        assert problem.dimension == 8  # 4 column bands + 4 beam bands
        roles = problem.frame.model.group_roles
        assert roles.count("column") == 4 and roles.count("beam") == 4

    def test_15story_variable_count_and_reduction(self):
        problem = frame_problem("frame-15story-3bay")
        assert problem.dimension == 11
        assert attach_fx(problem).dimension == 5

    def test_24story_variable_count_and_reduction(self):
        problem = frame_problem("frame-24story-3bay")
        assert problem.dimension == 20
        assert attach_fx(problem).dimension == 8
        assert len(problem.frame.model.members) == 168

    def test_8story_all_largest_feasible_weight_oracle(self):
        problem = frame_problem("frame-8story-1bay")
        x = np.array([float(d.upper) for d in problem.domains])
        ev = problem.evaluate(x)
        assert ev.feasible
        largest = tuple(pool[len(pool) - 1] for pool in problem.frame.pools)
        assert ev.objective == pytest.approx(
            frame_weight(problem.frame.model, largest), rel=1e-12)

    def test_zero_loads_feasible_everywhere(self):
        doc = dict(load_frame_config("frame-8story-1bay"))
        doc["loads"] = []
        problem = frame_problem(doc)
        x = np.zeros(problem.dimension)  # even the smallest sections
        ev = problem.evaluate(x)
        assert ev.feasible
        assert ev.violations.max() == pytest.approx(-5.08)  # drift limit itself

    def test_all_smallest_infeasible(self):
        problem = frame_problem("frame-8story-1bay")
        ev = problem.evaluate(np.zeros(problem.dimension))
        assert not ev.feasible

    def test_evaluation_is_pure(self):
        problem = frame_problem("frame-8story-1bay")
        x = np.full(problem.dimension, 100.0)
        e1, e2 = problem.evaluate(x), problem.evaluate(x)
        assert e1.objective == e2.objective
        assert np.array_equal(e1.violations, e2.violations)

    def test_index_rounding_at_evaluation(self):
        problem = frame_problem("frame-8story-1bay")
        x = np.full(problem.dimension, 100.3)
        assert problem.decode(x)["section_indices"] == [100] * 8
        x[0] = -5.0
        x[1] = 1e9
        decoded = problem.decode(x)
        assert decoded["section_indices"][0] == 0
        assert decoded["section_indices"][1] == 266

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            frame_problem({"name": "broken"})

    def test_every_section_reports_its_problems(self):
        doc = load_frame_config("frame-8story-1bay")
        doc["members"][2][1] = doc["members"][2][0]
        doc["story_levels"][0] += 1.0
        doc["groups"][1]["role"] = "brace"
        doc["constraints"]["roof_drift_limit_abs"] = 0.0
        doc["functioning"][0]["heights_cm"][0] = 5.0
        with pytest.raises(ConfigError) as err:
            frame_problem(doc)
        level = doc["story_levels"][0]
        node = doc["members"][2][0]
        assert err.value.problems == [
            f"members[2]: zero length (nodes {node} and {node} coincide)",
            f"story_levels[0]: no node at height {level}",
            "groups[1].role: expected beam|column, got 'brace'",
            "constraints: roof_drift_limit_abs must be positive, got 0.0",
            "functioning[0]: heights must start at 0 (the base section)",
        ]

    def test_every_binding_problem_listed(self):
        doc = load_frame_config("frame-8story-1bay")
        doc["members"][2][1] = doc["members"][2][0]
        doc["groups"][4]["pool"] = "w14"
        doc["functioning"] = [{"group_ids": [0, 1, 8], "heights_cm": [0.0, 1.0, 2.0]},
                              {"group_ids": [1, 2], "heights_cm": [0.0, 1.0]},
                              {"group_ids": [3, 4], "heights_cm": [0.0, 1.0]}]
        with pytest.raises(ConfigError) as err:
            frame_problem(doc)
        node = doc["members"][2][0]
        assert err.value.problems == [
            f"members[2]: zero length (nodes {node} and {node} coincide)",
            "functioning[0]: variables [8] outside 0..7",
            "functioning[1]: variable 1 is already in functioning[0] "
            "(rules must be disjoint)",
            "functioning[2]: variables [4] do not share the domain of variable 3",
        ]

    def test_24story_columns_use_w14_pool(self):
        problem = frame_problem("frame-24story-3bay")
        for role, pool in zip(problem.frame.model.group_roles, problem.frame.pools):
            assert len(pool) == (37 if role == "column" else 267)


class TestAttachFx:
    def test_frame_reduced_expansion_monotone(self):
        problem = frame_problem("frame-24story-3bay")
        reduced = attach_fx(problem)
        rng = np.random.default_rng(1)
        for _ in range(25):
            xr = reduced.lower + rng.random(reduced.dimension) * (
                reduced.upper - reduced.lower)
            full = reduced.expand_full(xr)
            decoded = problem.decode(full)
            areas = decoded["areas_cm2"]
            for rule in problem.rules:
                stack = [areas[g] for g in rule.replaced_variable_ids]
                assert all(a2 <= a1 for a1, a2 in zip(stack, stack[1:]))

    def test_fe_charge_parity(self):
        # one reduced evaluation = one full evaluation (same result object)
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=6))
        reduced = attach_fx(problem)
        xr = np.array([20.0, 1.001])
        full = reduced.expand_full(xr)
        assert reduced.evaluate(xr).objective == problem.evaluate(full).objective


class TestFrameOptimizationSmoke:
    @pytest.mark.parametrize("name", ["frame-15story-3bay", "frame-24story-3bay"])
    def test_reduced_search_finds_feasible_monotone_designs(self, name):
        from framefx.harness import practicality_report
        from framefx.optim import OptimizerConfig, de_run

        problem = frame_problem(name)
        reduced = attach_fx(problem)
        record = de_run(reduced, OptimizerConfig("de", 10, 120, rng_seed=0),
                        strategy="fx")
        assert record.final_feasible
        reports = practicality_report(record, problem)
        assert len(reports) == 2
        assert all(r["monotone"] for r in reports)
