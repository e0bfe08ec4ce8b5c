import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framefx.grouping import interaction_matrix, matrix_fe_cost, render_matrix
from framefx.problems import SteppedColumnSpec, frame_problem, stepped_column_problem

import fea_oracle as oracle


class TestInteractionMatrix:
    def test_separable_quadratic_has_empty_adjacency(self):
        f = lambda x: float(np.sum(np.asarray(x) ** 2))
        m = interaction_matrix(f, np.zeros(6), np.ones(6))
        off_diag = m.adjacency & ~np.eye(6, dtype=bool)
        assert not off_diag.any()
        assert np.allclose(m.lam, 0.0)

    def test_product_pair_lambda_value(self):
        # f = x1*x2 on [0,1]^2: base (0,0), midpoint perturbations (0.5):
        # |(0.25 - 0) - (0 - 0)| = 0.25
        f = lambda x: float(x[0] * x[1])
        m = interaction_matrix(f, np.zeros(2), np.ones(2))
        assert m.lam[0, 1] == pytest.approx(0.25)
        assert m.adjacency[0, 1]

    def test_fe_cost_formula(self):
        calls = []
        f = lambda x: calls.append(1) or float(np.sum(x))
        for n in (2, 5, 10):
            calls.clear()
            m = interaction_matrix(f, np.zeros(n), np.ones(n))
            assert m.fe_cost == matrix_fe_cost(n) == (n * n + n + 2) // 2
            assert len(calls) == m.fe_cost  # each distinct point evaluated once

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(0)
        A = rng.random((5, 5))
        f = lambda x: float(x @ A @ x)
        m = interaction_matrix(f, np.zeros(5), np.ones(5))
        assert np.array_equal(m.lam, m.lam.T)
        assert np.array_equal(m.adjacency, m.adjacency.T)

    def test_threshold_scales_with_objective(self):
        f = lambda x: 1e9 * float(np.sum(np.asarray(x) ** 2))
        m = interaction_matrix(f, np.zeros(3), np.ones(3))
        assert (m.threshold_used[np.triu_indices(3, 1)] >= 1e-10 * 1e9 * 0.25).all()
        off_diag = m.adjacency & ~np.eye(3, dtype=bool)
        assert not off_diag.any()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 4))
    def test_separated_variable_row_empty(self, i):
        # f = g(x_i) + h(rest): row i of the adjacency stays empty
        rng = np.random.default_rng(i)
        w = rng.random(5) + 0.5

        def f(x):
            rest = [x[j] for j in range(5) if j != i]
            return float(np.exp(x[i]) + np.prod(np.asarray(rest) + 1.0) * w[i])

        m = interaction_matrix(f, np.zeros(5), np.ones(5))
        row = m.adjacency[i] & ~np.eye(5, dtype=bool)[i]
        assert not row.any()

    def test_evaluation_failure_carries_point(self):
        def f(x):
            if x[1] > 0.4:
                raise RuntimeError("boom")
            return 0.0

        with pytest.raises(RuntimeError, match="failed at point"):
            interaction_matrix(f, np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_names_its_point(self, bad):
        # a nan magnitude compares as no interaction, so the pair (0, 2)
        # would read as separable
        def f(x):
            return bad if x[0] > 0 and x[2] > 0 else float(np.sum(x))

        with pytest.raises(RuntimeError,
                           match=rf"objective is {bad} at point \[0\.5, 0\.0, 0\.5\]"):
            interaction_matrix(f, np.zeros(3), np.ones(3))

    def test_needs_two_variables(self):
        with pytest.raises(ValueError):
            interaction_matrix(lambda x: 0.0, np.zeros(1), np.ones(1))

    @pytest.mark.parametrize("eta", [-1e-10, float("nan"), float("inf")])
    def test_eta_must_be_finite_and_nonnegative(self, eta):
        with pytest.raises(ValueError, match="eta must be finite"):
            interaction_matrix(lambda x: 0.0, np.zeros(2), np.ones(2), eta=eta)

    def test_stencil_order(self):
        # the base, each single midpoint move, then the pairs i < j row by row
        calls = []
        f = lambda x: calls.append(x.tolist()) or 0.0
        interaction_matrix(f, np.zeros(3), np.array([2.0, 4.0, 6.0]))
        assert calls == [[0, 0, 0],
                         [1, 0, 0], [0, 2, 0], [0, 0, 3],
                         [1, 2, 0], [1, 0, 3], [0, 2, 3]]


def _column_probe():
    return stepped_column_problem(SteppedColumnSpec(segment_count=10)).probe


@pytest.mark.parametrize("make_probe", [
    lambda: frame_problem("frame-8story-1bay").probe,
    lambda: frame_problem("frame-24story-3bay").probe,
    _column_probe,
], ids=["frame-8story", "frame-24story", "column-10"])
def test_matches_memoized_oracle_bit_for_bit(make_probe):
    """The stencil array gives the memoized pair-by-pair build's matrices,
    bit for bit, from the same sequence of objective calls."""
    probe = make_probe()
    runs = []
    for build in (interaction_matrix, oracle.interaction_matrix):
        calls = []

        def f(x):
            calls.append(np.array(x))
            return probe.f(x)

        runs.append((build(f, probe.lower, probe.upper), calls))
    (new, new_calls), (old, old_calls) = runs
    for name in ("lam", "threshold_used", "adjacency"):
        assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name
    assert new.fe_cost == old.fe_cost == len(new_calls)
    assert len(new_calls) == len(old_calls)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(new_calls, old_calls))


class TestSteppedColumnPattern:
    def test_first_row_dense(self):
        # the base segment's stress carries the weight of everything above,
        # so every variable interacts with the first one
        problem = stepped_column_problem(SteppedColumnSpec(segment_count=10))
        probe = problem.probe
        m = interaction_matrix(probe.f, probe.lower, probe.upper)
        assert all(m.adjacency[0, j] for j in range(1, 10))
        assert all(m.lam[0, j] > m.threshold_used[0, j] for j in range(1, 10))


class TestRender:
    def test_artifacts_written(self, tmp_path):
        f = lambda x: float(x[0] * x[1])
        m = interaction_matrix(f, np.zeros(2), np.ones(2))
        paths = render_matrix(m, tmp_path)
        with open(paths["csv"]) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and len(rows[0]) == 2
        assert float(rows[0][1]) == pytest.approx(0.25)
        svg = paths["svg"].read_text()
        assert svg.startswith("<svg") and svg.count("<rect") >= 4

    def test_identity_adjacency_renders_background_offdiagonal(self, tmp_path):
        # separable function: off-diagonal cells at full background (white)
        f = lambda x: float(x[0] ** 2 + x[1] ** 2)
        m = interaction_matrix(f, np.zeros(2), np.ones(2))
        render_matrix(m, tmp_path)
        svg = (tmp_path / "interactions.svg").read_text()
        assert 'fill="rgb(255,255,255)"' in svg
