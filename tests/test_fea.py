import numpy as np
import pytest
import scipy.linalg.lapack

from framefx.fea import (
    FrameModel,
    StructuralInstabilityError,
    analyze,
    constrained_stiffness,
    frame_weight,
    member_max_stress,
)
from framefx.problems import frame_problem
from framefx.sections import AREA, INERTIA, circular_properties

from conftest import make_shape, portal_frame, vertical_column

E = 20000.0
SHAPE = circular_properties(10.0)
EI = E * SHAPE.moment_of_inertia_x


class TestCantilever:
    @pytest.mark.parametrize("n_elements", [1, 4])
    def test_tip_deflection(self, n_elements):
        P, L = 5.0, 400.0
        model, assignment = vertical_column(n_elements, L, SHAPE, E, tip_load=P)
        res = analyze(model, assignment)
        assert res.displacements[-1][0] == pytest.approx(P * L**3 / (3 * EI), rel=1e-8)

    def test_tip_rotation(self):
        P, L = 5.0, 400.0
        model, assignment = vertical_column(2, L, SHAPE, E, tip_load=P)
        res = analyze(model, assignment)
        # rotation magnitude of the tip of a tip-loaded cantilever
        assert abs(res.displacements[-1][2]) == pytest.approx(
            P * L**2 / (2 * EI), rel=1e-8)

    def test_base_member_stress_matches_hand_calc(self):
        P, L = 5.0, 400.0
        model, assignment = vertical_column(4, L, SHAPE, E, tip_load=P)
        res = analyze(model, assignment)
        sigma = member_max_stress(model, assignment, res)
        assert sigma[0] == pytest.approx(P * L / SHAPE.section_modulus_x, rel=1e-8)

    def test_guided_tip(self):
        # tip rotation constrained: lateral stiffness becomes 12EI/L^3
        P, L = 5.0, 400.0
        model, assignment = vertical_column(2, L, SHAPE, E, tip_load=P,
                                            extra_supports=((2, ("rot",)),))
        res = analyze(model, assignment)
        assert res.displacements[-1][0] == pytest.approx(
            P * L**3 / (12 * EI), rel=1e-8)


class TestProppedCantilever:
    def test_midspan_load_closed_forms(self):
        # fixed base, lateral roller at the tip, lateral load at midheight:
        # deflection under the load 7PL^3/768EI, roller reaction 5P/16,
        # fixed-end moment 3PL/16
        P, L = 8.0, 300.0
        model, assignment = vertical_column(
            2, L, SHAPE, E,
            extra_supports=((2, ("ux",)),),
            loads=((1, P, 0.0, 0.0),),
        )
        res = analyze(model, assignment)
        assert res.displacements[1][0] == pytest.approx(
            7 * P * L**3 / (768 * EI), rel=1e-8)
        constrained = model.constrained_dofs()
        reaction_tip = res.reactions[constrained.index(6)]
        assert reaction_tip == pytest.approx(-5 * P / 16, rel=1e-8)
        base_moment = res.member_forces[0, 2]  # moment_a
        assert abs(base_moment) == pytest.approx(3 * P * L / 16, rel=1e-8)


class TestPortal:
    def test_sway_closed_form(self):
        # slope-deflection solution with axially rigid members; vertical
        # rollers at the tops and a split load reproduce that idealization
        h, span, P = 350.0, 600.0, 10.0
        col = circular_properties(9.0)
        beam = circular_properties(7.0)
        model, assignment = portal_frame(
            h, span, col, beam,
            loads=((2, P / 2, 0.0, 0.0), (3, P / 2, 0.0, 0.0)),
            elastic_modulus=E,
            pin_tops_vertically=True,
        )
        res = analyze(model, assignment)
        c = E * col.moment_of_inertia_x / h
        b = E * beam.moment_of_inertia_x / span
        expected = P * h**2 * (4 * c + 6 * b) / (24 * c * (c + 6 * b))
        assert res.displacements[2][0] == pytest.approx(expected, rel=1e-8)
        assert res.displacements[3][0] == pytest.approx(expected, rel=1e-8)

    def test_symmetric_vertical_loads_no_sway(self):
        h, span, P = 350.0, 600.0, 40.0
        col = circular_properties(9.0)
        beam = circular_properties(7.0)
        model, assignment = portal_frame(
            h, span, col, beam,
            loads=((2, 0.0, -P, 0.0), (3, 0.0, -P, 0.0)),
            elastic_modulus=E,
        )
        res = analyze(model, assignment)
        assert abs(res.displacements[2][0]) < 1e-12
        assert res.max_lateral_displacement < 1e-12

    def test_story_drift_fields(self):
        h, span, P = 350.0, 600.0, 10.0
        col = circular_properties(9.0)
        beam = circular_properties(7.0)
        model, assignment = portal_frame(h, span, col, beam,
                                         loads=((2, P, 0.0, 0.0),),
                                         elastic_modulus=E)
        res = analyze(model, assignment)
        assert res.story_heights.tolist() == [h]
        mean_top = (res.displacements[2][0] + res.displacements[3][0]) / 2
        assert res.story_drifts[0] == pytest.approx(abs(mean_top), rel=1e-12)


class TestLinearity:
    def _model(self, loads):
        h, span = 350.0, 600.0
        return portal_frame(h, span, circular_properties(9.0),
                            circular_properties(7.0), loads, elastic_modulus=E)

    def test_zero_loads_zero_response(self):
        model, assignment = self._model(())
        res = analyze(model, assignment)
        assert not res.displacements.any()
        assert not res.member_forces.any()

    def test_superposition(self):
        f1 = ((2, 7.0, 0.0, 0.0),)
        f2 = ((3, 0.0, -11.0, 30.0),)
        both = f1 + f2
        res1 = analyze(*self._model(f1))
        res2 = analyze(*self._model(f2))
        res12 = analyze(*self._model(both))
        combined = res1.displacements + res2.displacements
        scale = np.abs(res12.displacements).max()
        assert np.allclose(res12.displacements, combined, rtol=1e-10, atol=1e-10 * scale)

    def test_load_scaling(self):
        c = 3.7
        base = ((2, 5.0, -2.0, 10.0),)
        scaled = ((2, 5.0 * c, -2.0 * c, 10.0 * c),)
        res1 = analyze(*self._model(base))
        res2 = analyze(*self._model(scaled))
        assert np.allclose(res2.displacements, c * res1.displacements, rtol=1e-10)
        for f1, f2 in zip(res1.member_forces, res2.member_forces):
            assert f2[0] == pytest.approx(c * f1[0], rel=1e-9, abs=1e-12)  # axial
            assert f2[2] == pytest.approx(c * f1[2], rel=1e-9, abs=1e-12)  # moment_a

    def test_equilibrium_residual(self):
        model, assignment = self._model(((2, 13.0, -40.0, 25.0), (3, -4.0, -17.0, 0.0)))
        res = analyze(model, assignment)
        applied_fx = 13.0 - 4.0
        applied_fy = -57.0
        constrained = model.constrained_dofs()
        rx = sum(r for r, d in zip(res.reactions, constrained) if d % 3 == 0)
        ry = sum(r for r, d in zip(res.reactions, constrained) if d % 3 == 1)
        assert rx + applied_fx == pytest.approx(0.0, abs=1e-8 * abs(applied_fx))
        assert ry + applied_fy == pytest.approx(0.0, abs=1e-8 * abs(applied_fy))


class TestStiffnessMatrix:
    def test_symmetric_and_positive_definite(self):
        model, assignment = self._portal()
        K = constrained_stiffness(model, assignment)
        assert np.allclose(K, K.T, rtol=1e-12, atol=1e-12 * np.abs(K).max())
        np.linalg.cholesky(K)  # raises if not positive definite

    @staticmethod
    def _portal():
        return portal_frame(350.0, 600.0, circular_properties(9.0),
                            circular_properties(7.0), (), elastic_modulus=E)


class TestInstability:
    def test_mechanism_names_dof(self):
        # pinned base, no other restraint: rigid rotation mechanism
        nodes = ((0.0, 0.0), (0.0, 300.0))
        model = FrameModel(
            nodes=nodes, members=((0, 1, 0),),
            supports=((0, ("ux", "uy")),),
            loads=((1, 1.0, 0.0, 0.0),),
            group_roles=("column",), story_levels=(),
            elastic_modulus=E, yield_stress=24.0, density=0.00785,
        )
        with pytest.raises(StructuralInstabilityError) as err:
            analyze(model, (SHAPE,))
        assert err.value.dof in ("ux", "uy", "rot")
        assert "node" in str(err.value)

    def test_free_floating_structure(self):
        nodes = ((0.0, 0.0), (0.0, 300.0))
        model = FrameModel(
            nodes=nodes, members=((0, 1, 0),), supports=((0, ("uy",)),),
            loads=((1, 1.0, 0.0, 0.0),), group_roles=("column",),
            story_levels=(), elastic_modulus=E, yield_stress=24.0, density=0.00785,
        )
        with pytest.raises(StructuralInstabilityError):
            analyze(model, (SHAPE,))

    def test_wrong_solve_fails_equilibrium_guard(self, monkeypatch):
        model, assignment = portal_frame(350.0, 600.0, circular_properties(9.0),
                                         circular_properties(7.0),
                                         ((2, 13.0, -40.0, 25.0), (3, -4.0, -17.0, 0.0)),
                                         elastic_modulus=E)
        analyze(model, assignment)
        solve = scipy.linalg.lapack.dpbtrs

        def off_by_a_millionth(cb, b):  # K u != F, yet K u still sums to zero
            u, info = solve(cb, b)
            return u * (1 + 1e-6), info

        # analyze looks the solve up in scipy's lapack module on each call
        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs", off_by_a_millionth)
        with pytest.raises(StructuralInstabilityError):
            analyze(model, assignment)

    def test_nan_solve_fails_equilibrium_guard_as_value_error(self, monkeypatch):
        model, assignment = portal_frame(350.0, 600.0, circular_properties(9.0),
                                         circular_properties(7.0),
                                         ((2, 13.0, -40.0, 25.0),), elastic_modulus=E)
        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs",
                            lambda cb, b: (np.full_like(b, np.nan), 0))
        with pytest.raises(ValueError, match="design 0: "):
            analyze(model, assignment)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("prop", [AREA, INERTIA], ids=["area", "inertia"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nan_or_inf_section_property_names_the_design(self, prop, bad):
        frame = frame_problem("frame-8story-1bay").frame
        block = np.array([pool.properties[len(pool) // 2] for pool in frame.pools])
        broken = block.copy()
        broken[3, prop] = bad
        with pytest.raises(ValueError, match="design 0: a section property is nan or inf"):
            analyze(frame.model, broken)
        with pytest.raises(ValueError, match="design 1: "):
            analyze(frame.model, np.stack((block, broken, block)))


class TestMemberStress:
    def test_pure_axial(self):
        shape = make_shape(area=2.0, sx=4.0, zx=5.0)
        model = FrameModel(
            nodes=((0.0, 0.0), (100.0, 0.0)),
            members=((0, 1, 0),),
            supports=((0, ("ux", "uy", "rot")),),
            loads=((1, 10.0, 0.0, 0.0),),
            group_roles=("column",), story_levels=(),
            elastic_modulus=E, yield_stress=24.0, density=0.00785,
        )
        res = analyze(model, (shape,))
        sigma = member_max_stress(model, (shape,), res)
        assert sigma[0] == pytest.approx(5.0, rel=1e-12)

    def test_pure_bending(self):
        shape = make_shape(area=2.0, sx=4.0, zx=5.0)
        model = FrameModel(
            nodes=((0.0, 0.0), (100.0, 0.0)),
            members=((0, 1, 0),),
            supports=((0, ("ux", "uy", "rot")),),
            loads=((1, 0.0, 0.0, 12.0),),
            group_roles=("column",), story_levels=(),
            elastic_modulus=E, yield_stress=24.0, density=0.00785,
        )
        res = analyze(model, (shape,))
        sigma = member_max_stress(model, (shape,), res)
        assert sigma[0] == pytest.approx(3.0, rel=1e-12)


class TestFrameWeight:
    def test_single_member(self):
        shape = make_shape(area=10.0)
        model = FrameModel(
            nodes=((0.0, 0.0), (0.0, 100.0)), members=((0, 1, 0),),
            supports=((0, ("ux", "uy", "rot")),), loads=(),
            group_roles=("column",), story_levels=(),
            elastic_modulus=E, yield_stress=24.0, density=0.00785,
        )
        assert frame_weight(model, (shape,)) == pytest.approx(7.85, rel=1e-12)

    def test_doubling_areas_doubles_weight(self):
        model, assignment = portal_frame(350.0, 600.0, circular_properties(9.0),
                                         circular_properties(7.0), ())
        doubled = tuple(circular_properties(r * np.sqrt(2)) for r in (9.0, 7.0))
        w1 = frame_weight(model, assignment)
        w2 = frame_weight(model, doubled)
        assert w2 == pytest.approx(2 * w1, rel=1e-12)

    def test_empty_group_contributes_zero(self):
        shape = make_shape(area=10.0)
        model = FrameModel(
            nodes=((0.0, 0.0), (0.0, 100.0)), members=((0, 1, 0),),
            supports=((0, ("ux", "uy", "rot")),), loads=(),
            group_roles=("column", "beam"), story_levels=(),
            elastic_modulus=E, yield_stress=24.0, density=0.00785,
        )
        w_with = frame_weight(model, (shape, make_shape(area=999.0)))
        w_without = frame_weight(model, (shape, make_shape(area=1.0)))
        assert w_with == w_without


class TestValidation:
    def test_bad_group_id(self):
        with pytest.raises(ValueError, match="group id"):
            FrameModel(
                nodes=((0.0, 0.0), (0.0, 100.0)), members=((0, 1, 5),),
                supports=((0, ("ux", "uy", "rot")),), loads=(),
                group_roles=("column",), story_levels=(),
                elastic_modulus=E, yield_stress=24.0, density=0.00785,
            )

    def test_descending_story_levels(self):
        with pytest.raises(ValueError, match="story_levels"):
            FrameModel(
                nodes=((0.0, 0.0), (0.0, 100.0)), members=((0, 1, 0),),
                supports=((0, ("ux", "uy", "rot")),), loads=(),
                group_roles=("column",), story_levels=(200.0, 100.0),
                elastic_modulus=E, yield_stress=24.0, density=0.00785,
            )

    def test_zero_length_member(self):
        with pytest.raises(ValueError,
                           match=r"members\[1\]: zero length \(nodes 1 and 2 coincide\)"):
            FrameModel(
                nodes=((0.0, 0.0), (0.0, 100.0), (0.0, 100.0)),
                members=((0, 1, 0), (1, 2, 0)),
                supports=((0, ("ux", "uy", "rot")),), loads=(),
                group_roles=("column",), story_levels=(),
                elastic_modulus=E, yield_stress=24.0, density=0.00785,
            )

    def test_non_positive_k_factor(self):
        with pytest.raises(ValueError, match="one positive factor per group"):
            FrameModel(
                nodes=((0.0, 0.0), (0.0, 100.0)), members=((0, 1, 0),),
                supports=((0, ("ux", "uy", "rot")),), loads=(),
                group_roles=("column",), story_levels=(), group_k_factors=(0.0,),
                elastic_modulus=E, yield_stress=24.0, density=0.00785,
            )

    def test_assignment_length(self):
        model, _ = vertical_column(1, 100.0, SHAPE, E, tip_load=1.0)
        with pytest.raises(ValueError, match="assignment length"):
            analyze(model, (SHAPE, SHAPE))


class TestConstrainedDofs:
    def test_exactly_zero_displacement(self):
        model, assignment = portal_frame(350.0, 600.0, circular_properties(9.0),
                                         circular_properties(7.0),
                                         loads=((2, 13.0, -40.0, 25.0),),
                                         elastic_modulus=E)
        res = analyze(model, assignment)
        for node, dofs in model.supports:
            for d in dofs:
                from framefx.fea import DOF_NAMES
                assert res.displacements[node][DOF_NAMES.index(d)] == 0.0


class TestInclinedMember:
    def test_45_degree_cantilever_transverse_load(self):
        # member along the 45-degree diagonal, tip load perpendicular to the
        # axis: tip moves PL^3/3EI in the load direction, with no axial
        # stretch, which exercises the full rotation transform
        a = 300.0
        L = a * np.sqrt(2.0)
        P = 4.0
        perp = np.array([-1.0, 1.0]) / np.sqrt(2.0)
        model = FrameModel(
            nodes=((0.0, 0.0), (a, a)),
            members=((0, 1, 0),),
            supports=((0, ("ux", "uy", "rot")),),
            loads=((1, P * perp[0], P * perp[1], 0.0),),
            group_roles=("column",), story_levels=(),
            elastic_modulus=E, yield_stress=24.0, density=0.00785,
        )
        res = analyze(model, (SHAPE,))
        tip = res.displacements[1][:2]
        axial_dir = np.array([1.0, 1.0]) / np.sqrt(2.0)
        transverse = float(tip @ perp)
        axial = float(tip @ axial_dir)
        assert transverse == pytest.approx(P * L**3 / (3 * EI), rel=1e-8)
        assert abs(axial) < 1e-12 * abs(transverse) + 1e-15
        assert np.abs(res.member_forces[0, 2:]).max() == pytest.approx(P * L, rel=1e-8)
