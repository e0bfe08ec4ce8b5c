"""The compiled banded kernel in ``fea`` and the vectorized checks in
``evaluate``, against the per-member loops and dense solve in
``fea_oracle``.

Tolerances: the kernel sums element contributions in another order and
factors a banded instead of a dense matrix, so displacements, forces and
reactions agree with the dense oracle to rtol 1e-9 of each quantity's
largest entry (observed: a few 1e-12).  The vectorized constraints repeat
the loop's arithmetic except numpy's array ``power``, which may round the
column-curve term one ulp away from scalar ``pow``; they agree to 1e-13.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fea_oracle as oracle
from framefx.evaluate import VALID_FAMILIES, ConstraintSet, column_critical_stress, \
    constraint_values, effective_length_factor_sway, lrfd_interaction_value
from framefx.fea import FrameModel, StructuralInstabilityError, analyze, \
    constrained_stiffness, frame_weight
from framefx.problems import frame_problem
from framefx.sections import AREA, INERTIA, property_block

from conftest import make_shape, vertical_column

RTOL = 1e-9


def assert_close(actual, expected, rtol=RTOL):
    scale = max(np.abs(expected).max(initial=0.0), 1e-300)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


@st.composite
def grid_frames(draw):
    """A bays x stories grid frame with random spans, sections, supports and
    nodal loads, plus one inclined brace from the first base node."""
    bays = draw(st.integers(1, 3))
    stories = draw(st.integers(1, 4))
    span = st.floats(300.0, 900.0)
    xs = np.concatenate(([0.0], np.cumsum(draw(st.lists(span, min_size=bays,
                                                        max_size=bays)))))
    ys = np.concatenate(([0.0], np.cumsum(draw(st.lists(
        st.floats(250.0, 450.0), min_size=stories, max_size=stories)))))
    cols = bays + 1
    nodes = tuple((float(x), float(y)) for y in ys for x in xs)

    n_groups = draw(st.integers(1, 4))
    group = st.integers(0, n_groups - 1)
    members = [(lv * cols + c, (lv + 1) * cols + c, draw(group))
               for lv in range(stories) for c in range(cols)]
    members += [(lv * cols + c, lv * cols + c + 1, draw(group))
                for lv in range(1, stories + 1) for c in range(bays)]
    members.append((0, cols + 1, draw(group)))  # inclined brace

    supports = tuple((c, ("ux", "uy", "rot") if draw(st.booleans()) else ("ux", "uy"))
                     for c in range(cols))
    force = st.floats(-50.0, 50.0)
    loaded = draw(st.lists(st.integers(cols, len(nodes) - 1), min_size=1,
                           max_size=len(nodes) - cols, unique=True))
    loads = tuple((n, draw(force), draw(force), 100.0 * draw(force)) for n in loaded)

    model = FrameModel(
        nodes=nodes, members=tuple(members), supports=supports, loads=loads,
        group_roles=tuple(draw(st.sampled_from(("beam", "column")))
                          for _ in range(n_groups)),
        story_levels=tuple(float(y) for y in ys[1:]),
        elastic_modulus=20000.0, yield_stress=24.82, density=0.00785,
        group_k_factors=tuple(draw(st.floats(0.5, 2.0)) for _ in range(n_groups)),
    )
    assignment = []
    for g in range(n_groups):
        area = draw(st.floats(5.0, 300.0))
        inertia = draw(st.floats(50.0, 2e5))
        sx = inertia / draw(st.floats(5.0, 40.0))
        rx = float(np.sqrt(inertia / area))
        assignment.append(make_shape(f"G{g}", area, inertia, sx, 1.15 * sx, rx,
                                     draw(st.floats(0.2, 1.0)) * rx, 20.0))
    return model, tuple(assignment)


class TestKernelAgainstDenseOracle:
    @settings(max_examples=60, deadline=None)
    @given(grid_frames())
    def test_displacements_forces_reactions(self, frame):
        model, assignment = frame
        res = analyze(model, assignment)
        u, forces, reactions = oracle.dense_solve(model, assignment)
        assert_close(res.displacements, u)
        assert_close(res.member_forces, forces)
        assert_close(res.reactions, reactions)

    @settings(max_examples=60, deadline=None)
    @given(grid_frames())
    def test_equilibrium(self, frame):
        # reactions balance the applied loads in x, y and moment about the origin
        model, assignment = frame
        res = analyze(model, assignment)
        total = np.zeros(3 * len(model.nodes))
        total[model.constrained_dofs()] = res.reactions
        total += oracle.load_vector(model)
        x, y = np.array(model.nodes).T
        fx, fy, m = total[0::3], total[1::3], total[2::3]
        resultant = (fx.sum(), fy.sum(), (x * fy - y * fx + m).sum())
        applied = oracle.load_vector(model).reshape(-1, 3)
        scale = np.abs(applied).sum() * (1.0 + np.abs(model.nodes).max())
        assert np.abs(resultant).max() <= 1e-9 * scale

    @settings(max_examples=60, deadline=None)
    @given(grid_frames())
    def test_constrained_stiffness_symmetric_and_matches(self, frame):
        model, assignment = frame
        K = constrained_stiffness(model, assignment)
        np.testing.assert_allclose(K, K.T, rtol=0, atol=1e-12 * np.abs(K).max())
        assert_close(K, oracle.constrained_stiffness(model, assignment))

    @settings(max_examples=60, deadline=None)
    @given(grid_frames())
    def test_element_stiffness_has_the_bits_of_the_dense_sum(self, frame):
        # the area term is added only at its nonzero entries; a skipped
        # term is an exact zero, so each entry keeps its bits, zero signs too
        model, assignment = frame
        kernel = model._kernel
        members = property_block(assignment)[kernel.group]
        area, inertia = members[:, AREA], members[:, INERTIA]
        dense = area[:, None, None] * kernel.stiffness_per_area \
            + inertia[:, None, None] * kernel.stiffness_per_inertia
        assert kernel.element_stiffness(area, inertia).tobytes() == dense.tobytes()

    def test_node_shuffled_bundled_frame(self):
        # the solution, carried through the permutation, must not change
        problem = frame_problem("frame-24story-3bay")
        model, pools = problem.frame.model, problem.frame.pools
        shuffled, perm = _node_shuffled(model)
        assignment = tuple(pool[len(pool) // 2] for pool in pools)
        res = analyze(model, assignment)
        res_shuffled = analyze(shuffled, assignment)
        assert_close(res_shuffled.displacements, res.displacements[perm])
        assert_close(res_shuffled.member_forces, res.member_forces)
        assert_close(res_shuffled.story_drifts, res.story_drifts)
        cs = problem.frame.constraint_set
        assert_close(constraint_values(shuffled, assignment, res_shuffled, cs),
                     constraint_values(model, assignment, res, cs))

    def test_node_shuffled_frame_keeps_the_narrow_band(self):
        # numbered as shuffled, the band is 281 wide; node (y, x) order
        # restores the bundled numbering's 14, and the bundled frame keeps
        # its own numbering
        model = frame_problem("frame-24story-3bay").frame.model
        shuffled, _ = _node_shuffled(model)
        assert shuffled._kernel._bandwidth(np.sort(shuffled._kernel.free)) == 281
        assert model._kernel.bandwidth == 14
        np.testing.assert_array_equal(
            model._kernel.free,
            np.setdiff1d(np.arange(3 * len(model.nodes)), model.constrained_dofs()))
        assert shuffled._kernel.bandwidth == 14


def _node_shuffled(model):
    """``model`` with its nodes renumbered by a fixed random permutation, and
    that permutation (new node -> old node)."""
    perm = np.random.default_rng(7).permutation(len(model.nodes))
    new_id = np.argsort(perm)  # old node -> new node
    shuffled = dataclasses.replace(
        model,
        nodes=tuple(model.nodes[i] for i in perm),
        members=tuple((int(new_id[a]), int(new_id[b]), g) for a, b, g in model.members),
        supports=tuple((int(new_id[n]), d) for n, d in model.supports),
        loads=tuple((int(new_id[n]), *f) for n, *f in model.loads),
    )
    return shuffled, perm


class TestDiagnostics:
    @pytest.mark.parametrize("supports, extra_nodes", [
        (((0, ("ux", "uy")),), ()),                  # pinned base: rigid rotation
        (((0, ("uy",)),), ()),                       # free to slide
        (((0, ("ux", "uy", "rot")),), ((50.0, 0.0),)),  # node no member reaches
    ])
    def test_instability_names_the_dense_solver_dof(self, supports, extra_nodes):
        model, assignment = vertical_column(2, 300.0, make_shape(), tip_load=1.0)
        model = dataclasses.replace(model, supports=supports,
                                    nodes=model.nodes + extra_nodes)
        expected = oracle.dense_instability(model, assignment)
        assert expected is not None
        with pytest.raises(StructuralInstabilityError) as err:
            analyze(model, assignment)
        assert (err.value.node, err.value.dof) == expected

    def test_story_level_without_nodes(self):
        with pytest.raises(ValueError,
                           match=r"story_levels\[1\]: no node at height 200\.0"):
            vertical_column(2, 300.0, make_shape(), tip_load=1.0,
                            story_levels=(150.0, 200.0))


class TestVectorizedChecks:
    def test_array_helpers_match_scalar_forms(self):
        rng = np.random.default_rng(5)
        lam = np.concatenate((rng.uniform(0.0, 3.0, 500), [1.5, 1e-9]))
        np.testing.assert_allclose(
            column_critical_stress(lam, 24.82),
            [oracle.column_critical_stress(x, 24.82) for x in lam], rtol=1e-15)
        a, b = rng.uniform(0.0, 1.0, (2, 500))
        np.testing.assert_array_equal(
            lrfd_interaction_value(a, b),
            [oracle.lrfd_interaction_value(x, y) for x, y in zip(a, b)])
        g_a, g_b = rng.uniform(0.0, 20.0, (2, 500))
        np.testing.assert_array_equal(
            effective_length_factor_sway(g_a, g_b),
            [oracle.effective_length_factor_sway(x, y) for x, y in zip(g_a, g_b)])

    @pytest.mark.parametrize("k_mode", ["fixed", "sway"])
    @settings(max_examples=40, deadline=None)
    @given(frame=grid_frames())
    def test_constraint_values_match_member_loop(self, frame, k_mode):
        model, assignment = frame
        res = analyze(model, assignment)
        cs = ConstraintSet(families=frozenset(VALID_FAMILIES), stress_allowable=15.0,
                           drift_index_R=1.0 / 400.0, k_mode=k_mode)
        np.testing.assert_allclose(constraint_values(model, assignment, res, cs),
                                   oracle.constraint_values(model, assignment, res, cs),
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("config", ["frame-8story-1bay", "frame-15story-3bay",
                                        "frame-24story-3bay"])
    def test_bundled_frames_random_designs(self, config):
        problem = frame_problem(config)
        model, pools, cs = problem.frame.model, problem.frame.pools, \
            problem.frame.constraint_set
        rng = np.random.default_rng(11)
        for _ in range(5):
            assignment = tuple(pool[int(rng.integers(len(pool)))] for pool in pools)
            res = analyze(model, assignment)
            u, forces, _ = oracle.dense_solve(model, assignment)
            assert_close(res.displacements, u)
            assert_close(res.member_forces, forces)
            for k_mode in ("fixed", "sway"):
                cs_k = dataclasses.replace(cs, k_mode=k_mode)
                np.testing.assert_allclose(
                    constraint_values(model, assignment, res, cs_k),
                    oracle.constraint_values(model, assignment, res, cs_k),
                    rtol=1e-13, atol=1e-13)
            # the weight is a plain length-area dot product: bit-identical
            assert frame_weight(model, assignment) == \
                oracle.frame_weight(model, assignment)
