import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framefx.evaluate import (
    COLUMN_ELASTIC_COEF,
    ConstraintSet,
    Evaluation,
    GMaxTracker,
    PHI_BENDING,
    column_critical_stress,
    constraint_values,
    deb_compare,
    effective_length_factor_sway,
    lrfd_interaction_value,
    penalized_fitness,
)
from framefx.fea import analyze
from framefx.sections import circular_properties

from conftest import portal_frame
from fea_oracle import lrfd_strengths


def ev(feasible=True, objective=0.0, g=None):
    if g is None:
        g = np.array([-1.0]) if feasible else np.array([1.0])
    e = Evaluation(objective=objective, violations=np.asarray(g, dtype=float))
    return e


class TestDebCompare:
    def test_feasible_by_objective(self):
        assert deb_compare(ev(True, 100.0), ev(True, 90.0)) == 1

    def test_feasible_beats_infeasible(self):
        a = ev(True, 500.0)
        b = ev(False, 1.0, g=[0.001])
        b.normalized_violation = 0.001
        assert deb_compare(a, b) == -1

    def test_infeasible_by_violation(self):
        a = ev(False, 1.0, g=[1.0])
        b = ev(False, 1.0, g=[1.0])
        a.normalized_violation = 0.2
        b.normalized_violation = 0.5
        assert deb_compare(a, b) == -1

    def test_tie_returns_zero(self):
        assert deb_compare(ev(True, 10.0), ev(True, 10.0)) == 0

    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(0, 1e6, allow_nan=False),
                              st.floats(0.001, 1e3, allow_nan=False)),
                    min_size=3, max_size=3))
    def test_transitive(self, triple):
        evs = []
        for feasible, obj, g in triple:
            e = ev(feasible, obj)
            e.normalized_violation = 0.0 if feasible else g
            evs.append(e)
        a, b, c = evs
        if deb_compare(a, b) <= 0 and deb_compare(b, c) <= 0:
            assert deb_compare(a, c) <= 0

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(1, 3),
                              st.booleans(), st.integers(0, 3), st.integers(1, 3)),
                    min_size=1, max_size=12))
    def test_array_form_matches_scalar_elementwise(self, rows):
        # small integer values so ties and feasibility mixes are common
        def batch(cols):
            feasible, obj, g = (np.array(c) for c in cols)
            return Evaluation(objective=obj.astype(float),
                              violations=np.where(feasible, -1.0, 1.0)[:, None],
                              normalized_violation=g.astype(float))

        def row(ev, i):
            return Evaluation(ev.objective[i], ev.violations[i], ev.normalized_violation[i])

        cols = list(zip(*rows))
        a, b = batch(cols[:3]), batch(cols[3:])
        pairs = [(row(a, i), row(b, i)) for i in range(len(rows))]
        order = deb_compare(a, b)
        assert order.tolist() == [deb_compare(x, y) for x, y in pairs]
        for x, y in pairs:
            assert deb_compare(x, y) == _tuple_key_oracle(x, y)


def _tuple_key_oracle(a, b):
    """The lexicographic-key form of the feasibility rules."""
    key_a = (0, a.objective) if a.feasible else (1, a.normalized_violation)
    key_b = (0, b.objective) if b.feasible else (1, b.normalized_violation)
    return int(key_a > key_b) - int(key_a < key_b)


def normalized_violation(violations, tracker):
    """Normalize one point, then fold it into the tracker."""
    value = tracker.normalize(violations)
    tracker.merge([violations])
    return value


class TestNormalizedViolation:
    def test_all_satisfied_gives_zero(self):
        t = GMaxTracker()
        assert normalized_violation(np.array([-1.0, -0.5]), t) == 0.0

    def test_ratio_against_history(self):
        t = GMaxTracker()
        normalized_violation(np.array([4.0]), t)
        assert normalized_violation(np.array([2.0]), t) == pytest.approx(0.5)

    def test_first_violation_seeds_to_one(self):
        # two-step trace: the first ever violation normalizes against itself
        t = GMaxTracker()
        assert normalized_violation(np.array([3.0]), t) == pytest.approx(1.0)
        assert t.gmax[0] == 3.0
        assert normalized_violation(np.array([6.0]), t) == pytest.approx(1.0)
        assert normalized_violation(np.array([3.0]), t) == pytest.approx(0.5)

    def test_generation_merge_is_order_independent(self):
        t = GMaxTracker()
        batch = [np.array([2.0, -1.0]), np.array([5.0, 3.0])]
        values = [t.normalize(g) for g in batch]
        t.merge(batch)
        assert values[0] == pytest.approx(1.0)   # snapshot empty, self-seeded
        assert values[1] == pytest.approx(2.0)
        assert t.normalize(batch[0]) == pytest.approx(2.0 / 5.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 300))
    def test_generation_forms_match_per_design_forms(self, seed, p, c):
        # bit for bit, also past numpy's 128-element pairwise-summation block
        rng = np.random.default_rng(seed)
        history = rng.normal(size=(3, c))
        generation = rng.normal(size=(p, c))
        batch, single = GMaxTracker(), GMaxTracker()
        batch.merge(history)
        for g in history:
            single.merge([g])
        before = batch.normalize(generation)
        assert before.tolist() == [single.normalize(g) for g in generation]
        batch.merge(generation)
        for g in generation:
            single.merge([g])
        assert batch.gmax.tolist() == single.gmax.tolist()
        assert batch.normalize(generation).tolist() == \
            [single.normalize(g) for g in generation]

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_monotone_in_violation(self, g1, g2):
        lo, hi = sorted((g1, g2))
        t = GMaxTracker()
        t.merge([np.array([20.0])])
        assert t.normalize(np.array([lo])) <= t.normalize(np.array([hi]))


class TestPenalizedFitness:
    def test_feasible_passthrough(self):
        assert penalized_fitness(120.0, 0.0, 200.0) == 120.0

    def test_infeasible_formula(self):
        assert penalized_fitness(50.0, 0.3, 200.0) == pytest.approx(200.3)

    def test_violation_dominates_objective(self):
        light_but_bad = penalized_fitness(10.0, 0.4, 200.0)
        heavy_but_close = penalized_fitness(1000.0, 0.1, 200.0)
        assert heavy_but_close < light_but_bad

    @given(st.floats(1.0, 1e4), st.floats(0.001, 10.0), st.floats(1.0, 1e4))
    def test_agrees_with_deb_on_mixed_pairs(self, f_obj, g, f_max):
        feas = ev(True, min(f_obj, f_max))
        infeas = ev(False, f_obj)
        infeas.normalized_violation = g
        p_feas = penalized_fitness(feas.objective, 0.0, f_max)
        p_infeas = penalized_fitness(infeas.objective, g, f_max)
        assert (p_feas < p_infeas) == (deb_compare(feas, infeas) < 0)


class TestColumnCurve:
    def test_stocky_limit(self):
        fy = 24.82
        assert column_critical_stress(1e-9, fy) == pytest.approx(fy, rel=1e-12)

    def test_branch_continuity_at_seam(self):
        fy = 24.82
        inelastic = 0.658 ** (1.5**2) * fy
        elastic = COLUMN_ELASTIC_COEF / 1.5**2 * fy
        assert inelastic == pytest.approx(elastic, rel=1e-9)
        assert column_critical_stress(1.5, fy) == pytest.approx(inelastic, rel=1e-12)

    def test_monotone_decreasing(self):
        fy = 24.82
        lams = np.linspace(0.01, 3.0, 50)
        vals = [column_critical_stress(l, fy) for l in lams]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestLrfdStrengths:
    """Closed forms of the per-member strengths that the constraint oracle
    in fea_oracle computes."""

    def test_stocky_column_reaches_squash_load(self):
        shape = circular_properties(10.0)
        p_n, _ = lrfd_strengths(shape, length=1e-6, k_factor=1.0,
                                elastic_modulus=20000.0, yield_stress=24.82)
        assert p_n == pytest.approx(shape.area * 24.82, rel=1e-6)

    def test_flexural_strength_product(self):
        shape = circular_properties(10.0)
        _, m_n = lrfd_strengths(shape, 100.0, 1.0, 20000.0, 24.82)
        assert m_n == shape.plastic_modulus_x * 24.82

    def test_zx_100_fy_2482(self):
        from conftest import make_shape
        shape = make_shape(sx=90.0, zx=100.0)
        _, m_n = lrfd_strengths(shape, 100.0, 1.0, 20000.0, 24.82)
        assert m_n == pytest.approx(2482.0)


class TestInteractionEquation:
    def test_branches_cross_unity_together_at_seam(self):
        # at axial ratio 0.2 both branch formulas reach the limit surface at
        # the same moment ratio (0.9), where they agree exactly
        m_star = 0.9
        low = 0.2 / 2 + m_star - 1.0
        high = 0.2 + (8.0 / 9.0) * m_star - 1.0
        assert low == pytest.approx(high, abs=1e-9)
        assert lrfd_interaction_value(0.2, m_star) == pytest.approx(0.0, abs=1e-9)

    def test_low_axial_branch(self):
        assert lrfd_interaction_value(0.1, 0.5) == pytest.approx(0.05 + 0.5 - 1)

    def test_high_axial_branch(self):
        assert lrfd_interaction_value(0.5, 0.9) == pytest.approx(0.5 + 0.8 - 1)


class TestSwayKFactor:
    def test_known_value(self):
        # both ends rigid (G -> 0) gives K -> 1 for a sway column
        assert effective_length_factor_sway(1e-12, 1e-12) == pytest.approx(1.0, rel=1e-6)

    def test_increases_with_flexibility(self):
        k1 = effective_length_factor_sway(1.0, 1.0)
        k2 = effective_length_factor_sway(10.0, 10.0)
        assert 1.0 < k1 < k2


class TestConstraintValues:
    def _analyzed(self, loads, families, **cs_kwargs):
        col = circular_properties(9.0)
        beam = circular_properties(7.0)
        model, assignment = portal_frame(350.0, 600.0, col, beam, loads)
        res = analyze(model, assignment)
        cs = ConstraintSet(families=frozenset(families), **cs_kwargs)
        return model, assignment, res, cs

    def test_stress_boundary_is_zero(self):
        model, assignment, res, _ = self._analyzed(((2, 10.0, 0.0, 0.0),),
                                                   ["stress"], stress_allowable=1.0)
        from framefx.fea import member_max_stress
        sigma_max = member_max_stress(model, assignment, res).max()
        cs = ConstraintSet(families=frozenset(["stress"]), stress_allowable=sigma_max)
        g = constraint_values(model, assignment, res, cs)
        assert g.max() == pytest.approx(0.0, abs=1e-12)

    def test_roof_drift_boundary(self):
        model, assignment, res, _ = self._analyzed(
            ((2, 10.0, 0.0, 0.0),), ["lateral_drift"], roof_drift_limit_abs=5.08)
        cs = ConstraintSet(families=frozenset(["lateral_drift"]),
                           roof_drift_limit_abs=res.max_lateral_displacement)
        g = constraint_values(model, assignment, res, cs)
        assert g[0] == pytest.approx(0.0, abs=1e-12)
        cs2 = ConstraintSet(families=frozenset(["lateral_drift"]),
                            roof_drift_limit_abs=5.08)
        g2 = constraint_values(model, assignment, res, cs2)
        assert g2[0] == pytest.approx(res.max_lateral_displacement - 5.08)

    def test_drift_index_form(self):
        model, assignment, res, cs = self._analyzed(
            ((2, 10.0, 0.0, 0.0),), ["lateral_drift"], drift_index_R=0.002)
        g = constraint_values(model, assignment, res, cs)
        assert g[0] == pytest.approx(
            res.max_lateral_displacement / model.height - 0.002)

    def test_interstory_family(self):
        model, assignment, res, cs = self._analyzed(
            ((2, 10.0, 0.0, 0.0),), ["interstory_drift"])
        g = constraint_values(model, assignment, res, cs)
        assert g.size == 1
        assert g[0] == pytest.approx(res.story_drifts[0] / 350.0 - 1.0 / 300.0)

    def test_lrfd_family_layout_and_signs(self):
        model, assignment, res, cs = self._analyzed(
            ((2, 10.0, 0.0, -40.0),), ["lrfd_interaction"])
        g = constraint_values(model, assignment, res, cs)
        assert g.size == len(model.members)
        beam_shape = assignment[1]
        beam_max_moment = np.abs(res.member_forces[2, 2:]).max()
        expected_beam = beam_max_moment / (
            PHI_BENDING * beam_shape.plastic_modulus_x * model.yield_stress) - 1.0
        assert g[2] == pytest.approx(expected_beam, rel=1e-12)

    def test_at_least_one_family_required(self):
        with pytest.raises(ValueError):
            ConstraintSet(families=frozenset())


class TestLrfdEndToEnd:
    def test_hand_computed_compression_column(self):
        # axially loaded cantilever column: N = -P exactly, no moment, so the
        # interaction value reduces to the axial branch computed by hand
        import math
        from framefx.fea import FrameModel
        E_mod, fy, P, L = 20000.0, 24.82, 500.0, 300.0
        shape = circular_properties(8.0)
        model = FrameModel(
            nodes=((0.0, 0.0), (0.0, L)),
            members=((0, 1, 0),),
            supports=((0, ("ux", "uy", "rot")), (1, ("ux",))),
            loads=((1, 0.0, -P, 0.0),),
            group_roles=("column",), story_levels=(),
            elastic_modulus=E_mod, yield_stress=fy, density=0.00785,
        )
        res = analyze(model, (shape,))
        assert res.member_forces[0, 0] == pytest.approx(-P, rel=1e-12)  # axial
        cs = ConstraintSet(families=frozenset(["lrfd_interaction"]), k_mode="fixed")
        g = constraint_values(model, (shape,), res, cs)

        lam = (1.0 * L) / (shape.radius_of_gyration_y * math.pi) \
            * math.sqrt(fy / E_mod)
        f_cr = 0.658 ** (lam**2) * fy if lam <= 1.5 else COLUMN_ELASTIC_COEF / lam**2 * fy
        ratio = P / (0.85 * shape.area * f_cr)
        expected = ratio / 2 - 1.0 if ratio < 0.2 else ratio + 0.0 - 1.0
        assert g[0] == pytest.approx(expected, rel=1e-12)

    def test_tension_member_uses_gross_yield(self):
        from framefx.fea import FrameModel
        fy, P, L = 24.82, 500.0, 300.0
        shape = circular_properties(8.0)
        model = FrameModel(
            nodes=((0.0, 0.0), (0.0, L)),
            members=((0, 1, 0),),
            supports=((0, ("ux", "uy", "rot")), (1, ("ux",))),
            loads=((1, 0.0, P, 0.0),),
            group_roles=("column",), story_levels=(),
            elastic_modulus=20000.0, yield_stress=fy, density=0.00785,
        )
        res = analyze(model, (shape,))
        cs = ConstraintSet(families=frozenset(["lrfd_interaction"]))
        g = constraint_values(model, (shape,), res, cs)
        ratio = P / (0.9 * shape.area * fy)
        expected = ratio / 2 - 1.0 if ratio < 0.2 else ratio - 1.0
        assert g[0] == pytest.approx(expected, rel=1e-12)
