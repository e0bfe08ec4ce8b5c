"""Reference implementations kept as oracles for the array kernel in ``fea``,
the vectorized checks in ``evaluate``, the section-property blocks and the
generation-wide evaluation in ``problems``.

These are the original per-member loops: element stiffness built and
rotated one member at a time, scattered into a dense global matrix, solved
with a dense Cholesky factorization, and constraints evaluated member by
member; and the original per-group section path: one named SectionShape
per group, indices rounded with round(), member properties read with
getattr; and the original functioned column stack, searched one height at a
time for the nearest area capped at the pick below; and the original
per-design scoring, one design per call through scipy's banded Cholesky
wrappers and NumPy products on that design alone; and the original
interaction matrix, one memoized point and one pair at a time.  They are
slow and plain on purpose; tests compare the fast paths against them.
"""

import math
import re
from itertools import combinations

import numpy as np
import scipy.linalg

from framefx.evaluate import COLUMN_ELASTIC_COEF, PHI_BENDING, PHI_COMPRESSION, \
    PHI_TENSION, column_critical_stress as array_critical_stress, \
    effective_length_factor_sway as array_sway_factor, \
    lrfd_interaction_value as array_interaction_value
from framefx.fea import _FORCE_ROWS, AnalysisResult, _local_stiffness, _rotation
from framefx.grouping import DEFAULT_ETA, InteractionMatrix, matrix_fe_cost
from framefx.sections import AREA, INERTIA, PLASTIC_MODULUS, RADIUS_X, RADIUS_Y, \
    SECTION_MODULUS, SectionShape


def local_stiffness(E, A, I, L):
    ea = E * A / L
    ei = E * I
    l2, l3 = L * L, L**3
    return np.array([
        [ea, 0, 0, -ea, 0, 0],
        [0, 12 * ei / l3, 6 * ei / l2, 0, -12 * ei / l3, 6 * ei / l2],
        [0, 6 * ei / l2, 4 * ei / L, 0, -6 * ei / l2, 2 * ei / L],
        [-ea, 0, 0, ea, 0, 0],
        [0, -12 * ei / l3, -6 * ei / l2, 0, 12 * ei / l3, -6 * ei / l2],
        [0, 6 * ei / l2, 2 * ei / L, 0, -6 * ei / l2, 4 * ei / L],
    ])


def transform(c, s):
    t = np.zeros((6, 6))
    r = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    t[:3, :3] = r
    t[3:, 3:] = r
    return t


def member_length(model, i):
    a, b, _ = model.members[i]
    (xa, ya), (xb, yb) = model.nodes[a], model.nodes[b]
    return float(np.hypot(xb - xa, yb - ya))


def assemble(model, assignment):
    """Dense global stiffness plus each member's (local k, transform, dofs)."""
    n_dof = 3 * len(model.nodes)
    K = np.zeros((n_dof, n_dof))
    locals_cache = []
    for i, (a, b, g) in enumerate(model.members):
        (xa, ya), (xb, yb) = model.nodes[a], model.nodes[b]
        L = member_length(model, i)
        shape = assignment[g]
        k_loc = local_stiffness(model.elastic_modulus, shape.area,
                                shape.moment_of_inertia_x, L)
        T = transform((xb - xa) / L, (yb - ya) / L)
        idx = np.r_[3 * a:3 * a + 3, 3 * b:3 * b + 3]
        K[np.ix_(idx, idx)] += T.T @ k_loc @ T
        locals_cache.append((k_loc, T, idx))
    return K, locals_cache


def load_vector(model):
    F = np.zeros(3 * len(model.nodes))
    for node, fx, fy, m in model.loads:
        F[3 * node:3 * node + 3] += (fx, fy, m)
    return F


def free_dofs(model):
    return np.setdiff1d(np.arange(3 * len(model.nodes)), model.constrained_dofs())


def constrained_stiffness(model, assignment):
    K, _ = assemble(model, assignment)
    free = free_dofs(model)
    return K[np.ix_(free, free)]


def dense_solve(model, assignment):
    """(displacements (n_nodes, 3), member forces (m, 4), reactions) by a
    dense Cholesky solve; force columns are axial, shear, moment_a, moment_b."""
    K, locals_cache = assemble(model, assignment)
    F = load_vector(model)
    free = free_dofs(model)
    cho = scipy.linalg.cho_factor(K[np.ix_(free, free)])
    u = np.zeros(K.shape[0])
    u[free] = scipy.linalg.cho_solve(cho, F[free])
    reactions = (K @ u - F)[model.constrained_dofs()]
    forces = np.array([(k_loc @ (T @ u[idx]))[[3, 1, 2, 5]]
                       for k_loc, T, idx in locals_cache]).reshape(-1, 4)
    return u.reshape(-1, 3), forces, reactions


def column_critical_stress(lambda_c, fy):
    if lambda_c <= 1.5:
        return 0.658 ** (lambda_c**2) * fy
    return COLUMN_ELASTIC_COEF / lambda_c**2 * fy


def lrfd_strengths(shape, length, k_factor, elastic_modulus, yield_stress):
    min_radius = min(shape.radius_of_gyration_x, shape.radius_of_gyration_y)
    lambda_c = (k_factor * length) / (min_radius * math.pi) \
        * math.sqrt(yield_stress / elastic_modulus)
    p_n = shape.area * column_critical_stress(lambda_c, yield_stress)
    return p_n, shape.plastic_modulus_x * yield_stress


def lrfd_interaction_value(axial_ratio, moment_ratio):
    if axial_ratio < 0.2:
        return axial_ratio / 2.0 + moment_ratio - 1.0
    return axial_ratio + (8.0 / 9.0) * moment_ratio - 1.0


def effective_length_factor_sway(g_a, g_b):
    return math.sqrt((1.6 * g_a * g_b + 4.0 * (g_a + g_b) + 7.5) / (g_a + g_b + 7.5))


def dense_instability(model, assignment):
    """(node, dof name) that the dense solve's pivot checks name for an
    unstable model, or None when it factors with healthy pivots."""
    K, _ = assemble(model, assignment)
    free = free_dofs(model)
    try:
        cho = scipy.linalg.cho_factor(K[np.ix_(free, free)], check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        pivot = int(re.search(r"(\d+)-th leading minor", str(exc)).group(1)) - 1
    else:
        diag = np.abs(np.diag(cho[0]))
        pivot = int(np.argmin(diag))
        if (diag[pivot] / diag.max()) ** 2 >= 1e-13:
            return None
    dof = int(free[min(pivot, free.size - 1)])
    return dof // 3, ("ux", "uy", "rot")[dof % 3]


def _max_moment(forces, i):
    return max(abs(forces[i, 2]), abs(forces[i, 3]))


def member_max_stress(model, assignment, forces):
    out = np.empty(len(model.members))
    for i, (_, _, g) in enumerate(model.members):
        shape = assignment[g]
        out[i] = abs(forces[i, 0]) / shape.area \
            + _max_moment(forces, i) / shape.section_modulus_x
    return out


def joint_stiffness_ratios(model, assignment):
    col = np.zeros(len(model.nodes))
    beam = np.zeros(len(model.nodes))
    for i, (a, b, g) in enumerate(model.members):
        stiff = assignment[g].moment_of_inertia_x / member_length(model, i)
        tgt = col if model.group_roles[g] == "column" else beam
        tgt[a] += stiff
        tgt[b] += stiff
    fixed_rot = {n for n, dofs in model.supports if "rot" in dofs}
    pinned = {n for n, dofs in model.supports if "rot" not in dofs}
    ratios = np.empty(len(model.nodes))
    for n in range(len(model.nodes)):
        if n in fixed_rot:
            ratios[n] = 1.0
        elif n in pinned:
            ratios[n] = 10.0
        elif beam[n] > 0:
            ratios[n] = col[n] / beam[n]
        else:
            ratios[n] = 10.0
    return ratios


def member_k_factors(model, assignment, cs):
    if cs.k_mode == "fixed":
        return [model.group_k_factors[g] if model.group_k_factors else 1.0
                for _, _, g in model.members]
    ratios = joint_stiffness_ratios(model, assignment)
    return [effective_length_factor_sway(ratios[a], ratios[b])
            if model.group_roles[g] == "column" else 1.0
            for a, b, g in model.members]


def constraint_values(model, assignment, result, cs):
    """The per-member loop that ``evaluate.constraint_values`` replaced."""
    forces = result.member_forces
    parts = []
    if "stress" in cs.families:
        sigma = member_max_stress(model, assignment, forces)
        parts.append(np.abs(sigma / cs.stress_allowable) - 1.0)
    if "lateral_drift" in cs.families:
        if cs.roof_drift_limit_abs is not None:
            g = result.max_lateral_displacement - cs.roof_drift_limit_abs
        else:
            g = result.max_lateral_displacement / model.height - cs.drift_index_R
        parts.append(np.array([g]))
    if "interstory_drift" in cs.families:
        parts.append(result.story_drifts / result.story_heights - cs.interstory_index_RI)
    if "lrfd_interaction" in cs.families:
        k_factors = member_k_factors(model, assignment, cs)
        E, fy = model.elastic_modulus, model.yield_stress
        g_lrfd = np.empty(len(model.members))
        for i, (_, _, grp) in enumerate(model.members):
            shape = assignment[grp]
            axial = forces[i, 0]
            m_n = shape.plastic_modulus_x * fy
            moment_ratio = _max_moment(forces, i) / (PHI_BENDING * m_n)
            if model.group_roles[grp] == "beam":
                g_lrfd[i] = moment_ratio - 1.0
                continue
            if axial < 0:
                p_n, _ = lrfd_strengths(shape, member_length(model, i),
                                        k_factors[i], E, fy)
                axial_ratio = -axial / (PHI_COMPRESSION * p_n)
            else:
                axial_ratio = axial / (PHI_TENSION * shape.area * fy)
            g_lrfd[i] = lrfd_interaction_value(axial_ratio, moment_ratio)
        parts.append(g_lrfd)
    return np.concatenate(parts)


def frame_weight(model, assignment):
    """The per-member length sum that ``fea.frame_weight`` replaced."""
    lengths = np.zeros(model.n_groups)
    for i, (_, _, g) in enumerate(model.members):
        lengths[g] += member_length(model, i)
    areas = np.array([s.area for s in assignment])
    return float(model.density * np.dot(lengths, areas))


def interpolated_shape(pool, area):
    """A named SectionShape with each property interpolated in area at the
    clamped ``area`` (the per-group form that property blocks replaced)."""
    areas = np.array([s.area for s in pool])
    a = float(min(max(area, areas[0]), areas[-1]))
    return SectionShape(
        name=f"{pool.label or 'pool'}-interp-{a:.3f}",
        area=a,
        **{attr: float(np.interp(a, areas, np.array([getattr(s, attr) for s in pool])))
           for attr in ("moment_of_inertia_x", "section_modulus_x", "plastic_modulus_x",
                        "radius_of_gyration_x", "radius_of_gyration_y", "depth")},
    )


def round_indices(x, domains):
    """Nearest catalog index of each variable by round(), clamped to its domain."""
    return [min(max(round(float(v)), int(d.lower)), int(d.upper))
            for v, d in zip(x, domains)]


def member_values(model, assignment, attr):
    """Section property ``attr`` of each member's group, read with getattr."""
    return np.array([getattr(s, attr) for s in assignment])[
        [g for _, _, g in model.members]]


def capped_nearest_area(pool, target_area, cap_area):
    """Index of the area nearest ``target_area`` among the shapes with area
    <= ``cap_area`` (the smallest shape when none qualifies); ties go to the
    smaller area."""
    areas = pool.areas
    n_ok = int(np.searchsorted(areas, cap_area, side="right"))
    if n_ok == 0:
        return 0
    return int(np.argmin(np.abs(areas[:n_ok] - target_area)))


def expand_discrete(base_index, alpha, heights, pool):
    """Catalog indices of a functioned stack, one height at a time: each
    target area base / alpha**h takes the nearest shape no larger than the
    one picked below it."""
    targets = pool[base_index].area / np.power(alpha, np.asarray(heights, dtype=float))
    indices = [base_index]
    for target in targets[1:]:
        indices.append(capped_nearest_area(pool, float(target), pool[indices[-1]].area))
    return np.array(indices)


# -- per-design scoring: what Problem.evaluate computed one design at a time --

def _force_rows(model):
    """Each member's local end-force rows per unit A and per unit I, (m, 4, 6)
    each: the ``_FORCE_ROWS`` rows of its local stiffness times its rotation,
    built with the kernel's own operations."""
    nodes = np.array(model.nodes, dtype=float).reshape(-1, 2)
    members = np.array(model.members, dtype=np.intp).reshape(-1, 3)
    dx, dy = (nodes[members[:, 1]] - nodes[members[:, 0]]).T
    E, L = model.elastic_modulus, np.hypot(dx, dy)
    t = _rotation(dx / L, dy / L)
    return tuple((_local_stiffness(ea, ei, L) @ t)[:, _FORCE_ROWS]
                 for ea, ei in ((E / L, 0.0), (0.0, E)))


def banded_analyze(model, block):
    """``fea.analyze`` of one (G, k) block as it was before designs were
    stacked: scipy's cholesky_banded and cho_solve_banded, and NumPy
    products on this design alone.  Reactions are left out."""
    kernel = model._kernel
    members = block[kernel.group]
    area, inertia = members[:, AREA], members[:, INERTIA]
    ke = area[:, None, None] * kernel.stiffness_per_area \
        + inertia[:, None, None] * kernel.stiffness_per_inertia
    n_free, bw = kernel.free.size, kernel.bandwidth
    band = np.bincount(kernel.band_dst, ke.ravel()[kernel.band_src],
                       minlength=n_free * (bw + 1)).reshape(n_free, bw + 1).T
    cb = scipy.linalg.cholesky_banded(band, check_finite=False)
    u = np.zeros(kernel.n_dof)
    u[kernel.free] = scipy.linalg.cho_solve_banded((cb, False), kernel.loads[kernel.free],
                                                   check_finite=False)
    per_area, per_inertia = _force_rows(model)
    forces = np.einsum("mij,mj->mi", area[:, None, None] * per_area
                       + inertia[:, None, None] * per_inertia,
                       u[kernel.dofs])
    ux = u[0::3]
    lateral = kernel.level_weights @ ux
    return AnalysisResult(
        displacements=u.reshape(-1, 3), member_forces=forces, reactions=None,
        max_lateral_displacement=float(np.abs(ux).max()),
        story_drifts=np.abs(np.diff(np.concatenate(([0.0], lateral)))),
        story_heights=kernel.story_heights.copy())


def block_constraint_values(model, block, result, cs):
    """``evaluate.constraint_values`` of one (G, k) block as it was before
    designs were stacked."""
    kernel = model._kernel
    members = block[kernel.group]
    forces = result.member_forces
    max_moment = np.maximum(np.abs(forces[:, 2]), np.abs(forces[:, 3]))
    parts = []
    if "stress" in cs.families:
        sigma = np.abs(forces[:, 0]) / members[:, AREA] \
            + max_moment / members[:, SECTION_MODULUS]
        parts.append(np.abs(sigma / cs.stress_allowable) - 1.0)
    if "lateral_drift" in cs.families:
        if cs.roof_drift_limit_abs is not None:
            g = result.max_lateral_displacement - cs.roof_drift_limit_abs
        else:
            g = result.max_lateral_displacement / model.height - cs.drift_index_R
        parts.append(np.array([g]))
    if "interstory_drift" in cs.families:
        parts.append(result.story_drifts / result.story_heights - cs.interstory_index_RI)
    if "lrfd_interaction" in cs.families:
        E, fy = model.elastic_modulus, model.yield_stress
        area, axial = members[:, AREA], forces[:, 0]
        moment_ratio = max_moment / (PHI_BENDING * (members[:, PLASTIC_MODULUS] * fy))
        if cs.k_mode == "fixed":
            k_factors = kernel.k_factor
        else:
            stiff = np.repeat(members[:, INERTIA] / kernel.length, 2)
            column_end = np.repeat(kernel.is_column, 2)
            n = kernel.supported.size
            col = np.bincount(kernel.ends.ravel(), np.where(column_end, stiff, 0.0),
                              minlength=n)
            beam = np.bincount(kernel.ends.ravel(), np.where(column_end, 0.0, stiff),
                               minlength=n)
            with np.errstate(divide="ignore", invalid="ignore"):
                joint = np.where(beam > 0, col / beam, 10.0)
            ratios = np.where(kernel.rot_fixed, 1.0,
                              np.where(kernel.supported, 10.0, joint))
            a, b = kernel.ends.T
            k_factors = np.where(kernel.is_column,
                                 array_sway_factor(ratios[a], ratios[b]), 1.0)
        min_radius = np.minimum(members[:, RADIUS_X], members[:, RADIUS_Y])
        lambda_c = (k_factors * kernel.length) / (min_radius * math.pi) \
            * math.sqrt(fy / E)
        p_n = area * array_critical_stress(lambda_c, fy)
        axial_ratio = np.where(axial < 0, -axial / (PHI_COMPRESSION * p_n),
                               axial / (PHI_TENSION * area * fy))
        parts.append(np.where(kernel.is_column,
                              array_interaction_value(axial_ratio, moment_ratio),
                              moment_ratio - 1.0))
    return np.concatenate(parts)


def frame_score(problem, x):
    """(weight, violations) of one full-space frame design."""
    frame = problem.frame
    upper = [len(pool) - 1 for pool in frame.pools]
    idx = np.clip(np.rint(x), 0, upper).astype(np.intp)
    block = np.array([pool.properties[i] for pool, i in zip(frame.pools, idx)])
    result = banded_analyze(frame.model, block)
    areas = np.ascontiguousarray(block[:, AREA])
    weight = float(frame.model.density * np.dot(frame.model._kernel.group_length, areas))
    return weight, block_constraint_values(frame.model, block, result,
                                           frame.constraint_set)


def column_score(spec, x):
    """(weight, violations) of one stepped-column design."""
    r = np.asarray(x, dtype=float)
    weight = spec.density * spec.segment_length * math.pi * float(np.dot(r, r))
    sigma = 4.0 * spec.moments / (math.pi * r**3)
    return weight, sigma - spec.allowable_stress


def fx_expand(reduced, xr):
    """The full-space vector of one reduced design, one rule at a time and,
    for a catalog stack, one height at a time."""
    base = reduced.base_problem
    full = np.empty(base.dimension)
    replaced = []
    for k, rule in zip(range(0, 2 * len(base.rules), 2), base.rules):
        ids = list(rule.replaced_variable_ids)
        dom = base.domains[ids[0]]
        alpha = max(float(xr[k + 1]), 1.0)
        if dom.kind == "index":
            index = int(np.clip(np.rint(xr[k]), dom.lower, dom.upper))
            full[ids] = expand_discrete(index, alpha, rule.heights, dom.pool)
        else:
            value = min(max(float(xr[k]), dom.lower), dom.upper)
            profile = value / np.power(alpha, np.asarray(rule.heights, dtype=float))
            full[ids] = np.clip(profile, dom.lower, dom.upper)
        replaced += ids
    full[np.setdiff1d(np.arange(base.dimension), replaced)] = xr[2 * len(base.rules):]
    return full


def interaction_matrix(f, lower, upper, eta=DEFAULT_ETA) -> InteractionMatrix:
    """Differential-grouping matrix built pair by pair, each stencil point
    evaluated on first use and memoized by its perturbed variable ids."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    mid = (lower + upper) / 2.0
    cache = {}

    def value(ids):
        if ids not in cache:
            x = lower.copy()
            for i in ids:
                x[i] = mid[i]
            cache[ids] = float(f(x))
        return cache[ids]

    f0 = value(())
    singles = np.array([value((i,)) for i in range(n)])
    lam = np.zeros((n, n))
    thresholds = np.zeros((n, n))
    adjacency = np.eye(n, dtype=bool)
    for i, j in combinations(range(n), 2):
        fij = value((i, j))
        fi, fj = singles[i], singles[j]
        lam[i, j] = lam[j, i] = abs((fij - fj) - (fi - f0))
        thresholds[i, j] = thresholds[j, i] = \
            eta * max(1.0, abs(f0), abs(fi), abs(fj), abs(fij))
        if lam[i, j] > thresholds[i, j]:
            adjacency[i, j] = adjacency[j, i] = True
    assert len(cache) == matrix_fe_cost(n)
    return InteractionMatrix(n=n, lam=lam, adjacency=adjacency,
                             threshold_used=thresholds, fe_cost=len(cache))
