"""Linear-elastic planar frame analysis by the direct stiffness method.

Elements are two-node Euler-Bernoulli frame members (axial + bending, 3 DOF
per node: ux, uy, rot).  Analysis is first order with a dense Cholesky
solve; problem sizes here stay in the low hundreds of DOFs, and the
evaluation count, not the per-solve cost, dominates run time.

Units: cm, kN, kN*cm, kg (density in kg/cm^3, stresses in kN/cm^2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "DOF_NAMES",
    "LEVEL_TOL",
    "FrameModel",
    "AnalysisResult",
    "MemberForces",
    "StructuralInstabilityError",
    "analyze",
    "constrained_stiffness",
    "member_max_stress",
    "frame_weight",
]

DOF_NAMES = ("ux", "uy", "rot")
LEVEL_TOL = 1e-6  # cm; a node within this of a story level lies on it


class StructuralInstabilityError(RuntimeError):
    """Stiffness matrix is singular; carries the first unstable DOF found."""

    def __init__(self, node, dof):
        self.node = node
        self.dof = dof
        super().__init__(
            f"singular stiffness matrix: zero pivot at node {node}, dof '{dof}' "
            f"(kinematically unstable model)"
        )


@dataclass(frozen=True)
class FrameModel:
    """Geometry, supports, loads and grouping of one planar frame."""

    nodes: tuple            # ((x, y), ...) cm
    members: tuple          # ((node_a, node_b, group_id), ...)
    supports: tuple         # ((node, ("ux", "uy", ...)), ...)
    loads: tuple            # ((node, fx, fy, m), ...)
    group_roles: tuple      # per-group "beam" | "column"
    story_levels: tuple     # ascending story heights, cm
    elastic_modulus: float  # kN/cm^2
    yield_stress: float     # kN/cm^2
    density: float          # kg/cm^3
    group_k_factors: tuple = ()   # per-group effective length factor (default 1.0)
    name: str = "frame"

    def __post_init__(self):
        n = len(self.nodes)
        n_g = len(self.group_roles)
        for a, b, g in self.members:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"member ({a}, {b}) references invalid nodes")
            if not 0 <= g < n_g:
                raise ValueError(f"member group id {g} out of range (n_g={n_g})")
        for node, dofs in self.supports:
            if not 0 <= node < n:
                raise ValueError(f"support node {node} out of range")
            for d in dofs:
                if d not in DOF_NAMES:
                    raise ValueError(f"unknown support dof {d!r}")
        for node, *_ in self.loads:
            if not 0 <= node < n:
                raise ValueError(f"load node {node} out of range")
        if self.story_levels:
            lv = self.story_levels
            if lv[0] <= 0 or any(b <= a for a, b in zip(lv, lv[1:])):
                raise ValueError("story_levels must be strictly ascending and positive")
        for role in self.group_roles:
            if role not in ("beam", "column"):
                raise ValueError(f"unknown group role {role!r}")

    @property
    def n_groups(self) -> int:
        return len(self.group_roles)

    @property
    def height(self) -> float:
        """Total frame height (top story level, or highest node)."""
        if self.story_levels:
            return float(self.story_levels[-1])
        return max(y for _, y in self.nodes)

    def member_length(self, i) -> float:
        a, b, _ = self.members[i]
        (xa, ya), (xb, yb) = self.nodes[a], self.nodes[b]
        return float(np.hypot(xb - xa, yb - ya))

    def k_factor(self, group_id) -> float:
        if self.group_k_factors:
            return float(self.group_k_factors[group_id])
        return 1.0

    def constrained_dofs(self):
        """Sorted global DOF indices fixed by supports."""
        out = set()
        for node, dofs in self.supports:
            for d in dofs:
                out.add(3 * node + DOF_NAMES.index(d))
        return sorted(out)


@dataclass(frozen=True)
class MemberForces:
    """Local end forces of one member (no span loading, so shear is constant)."""

    axial: float     # kN, tension positive
    shear: float     # kN
    moment_a: float  # kN*cm at start node
    moment_b: float  # kN*cm at end node

    @property
    def max_moment(self) -> float:
        return max(abs(self.moment_a), abs(self.moment_b))


@dataclass(frozen=True)
class AnalysisResult:
    displacements: np.ndarray       # (n_nodes, 3): ux, uy, rot
    member_forces: tuple            # MemberForces per member
    reactions: np.ndarray           # (n_constrained,) kN / kN*cm
    max_lateral_displacement: float  # cm
    story_drifts: np.ndarray        # cm, per story
    story_heights: np.ndarray       # cm, per story


def _local_stiffness(E, A, I, L):
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


def _transform(c, s):
    t = np.zeros((6, 6))
    r = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    t[:3, :3] = r
    t[3:, 3:] = r
    return t


def _member_geometry(model, i):
    a, b, _ = model.members[i]
    (xa, ya), (xb, yb) = model.nodes[a], model.nodes[b]
    dx, dy = xb - xa, yb - ya
    L = float(np.hypot(dx, dy))
    return a, b, L, dx / L, dy / L


def _assemble(model: FrameModel, assignment):
    """Global stiffness matrix plus each member's (local k, transform, dofs)."""
    n_dof = 3 * len(model.nodes)
    K = np.zeros((n_dof, n_dof))
    E = model.elastic_modulus
    locals_cache = []
    for i, (_, _, g) in enumerate(model.members):
        a, b, L, c, s = _member_geometry(model, i)
        shape = assignment[g]
        k_loc = _local_stiffness(E, shape.area, shape.moment_of_inertia_x, L)
        T = _transform(c, s)
        k_glob = T.T @ k_loc @ T
        idx = np.r_[3 * a:3 * a + 3, 3 * b:3 * b + 3]
        K[np.ix_(idx, idx)] += k_glob
        locals_cache.append((k_loc, T, idx))
    return K, locals_cache


def constrained_stiffness(model: FrameModel, assignment) -> np.ndarray:
    """Stiffness matrix after support elimination (free DOFs only)."""
    K, _ = _assemble(model, assignment)
    free = np.setdiff1d(np.arange(K.shape[0]), model.constrained_dofs())
    return K[np.ix_(free, free)]


def analyze(model: FrameModel, assignment) -> AnalysisResult:
    """Solve K u = F for the frame under its nodal loads.

    ``assignment`` is one SectionShape per member group.  Raises
    StructuralInstabilityError when the constrained stiffness matrix is
    singular, naming the offending node/DOF.
    """
    if len(assignment) != model.n_groups:
        raise ValueError(
            f"assignment length {len(assignment)} != group count {model.n_groups}"
        )
    K, locals_cache = _assemble(model, assignment)
    n_dof = K.shape[0]

    F = np.zeros(n_dof)
    for node, fx, fy, m in model.loads:
        F[3 * node:3 * node + 3] += (fx, fy, m)

    fixed = model.constrained_dofs()
    free = np.setdiff1d(np.arange(n_dof), fixed)
    if free.size == 0:
        raise ValueError("model has no free degrees of freedom")
    K_ff = K[np.ix_(free, free)]

    try:
        cho = scipy.linalg.cho_factor(K_ff, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        m = re.search(r"(\d+)-th leading minor", str(exc))
        pivot = int(m.group(1)) - 1 if m else 0
        dof_global = int(free[min(pivot, free.size - 1)])
        raise StructuralInstabilityError(dof_global // 3, DOF_NAMES[dof_global % 3]) from None

    # a mechanism can survive factorization with a roundoff-sized pivot;
    # stable frames here sit many orders above this threshold
    diag = np.abs(np.diag(cho[0]))
    rel_pivots = (diag / diag.max()) ** 2
    weakest = int(np.argmin(rel_pivots))
    if rel_pivots[weakest] < 1e-13:
        dof_global = int(free[weakest])
        raise StructuralInstabilityError(dof_global // 3, DOF_NAMES[dof_global % 3])

    u_free = scipy.linalg.cho_solve(cho, F[free], check_finite=False)
    u = np.zeros(n_dof)
    u[free] = u_free

    reactions = (K @ u - F)[fixed]
    # equilibrium guard: reactions must balance applied loads
    applied = np.abs(F).sum()
    for comp in (0, 1):
        total = F[comp::3].sum() + (K @ u - F)[comp::3].sum()
        if applied > 0 and abs(total) > 1e-8 * max(applied, 1.0):
            dof_global = int(free[weakest])
            raise StructuralInstabilityError(dof_global // 3, DOF_NAMES[dof_global % 3])

    forces = []
    for k_loc, T, idx in locals_cache:
        f_loc = k_loc @ (T @ u[idx])
        forces.append(MemberForces(
            axial=float(f_loc[3]),
            shear=float(f_loc[1]),
            moment_a=float(f_loc[2]),
            moment_b=float(f_loc[5]),
        ))

    ux = u[0::3]
    ys = np.array([y for _, y in model.nodes])
    levels = np.array(model.story_levels, dtype=float)
    if levels.size:
        lateral = np.empty(levels.size)
        for j, lv in enumerate(levels):
            at_level = np.abs(ys - lv) < LEVEL_TOL
            if not at_level.any():
                raise ValueError(f"no nodes found at story level {lv}")
            lateral[j] = ux[at_level].mean()
        prev = np.concatenate(([0.0], lateral[:-1]))
        drifts = np.abs(lateral - prev)
        heights = np.diff(np.concatenate(([0.0], levels)))
    else:
        drifts = np.zeros(0)
        heights = np.zeros(0)

    return AnalysisResult(
        displacements=u.reshape(-1, 3),
        member_forces=tuple(forces),
        reactions=reactions,
        max_lateral_displacement=float(np.abs(ux).max()),
        story_drifts=drifts,
        story_heights=heights,
    )


def member_max_stress(model: FrameModel, assignment, result: AnalysisResult) -> np.ndarray:
    """Combined elastic stress per member: |N|/A + max|M|/Sx, kN/cm^2."""
    out = np.empty(len(model.members))
    for i, (_, _, g) in enumerate(model.members):
        shape = assignment[g]
        f = result.member_forces[i]
        out[i] = abs(f.axial) / shape.area + f.max_moment / shape.section_modulus_x
    return out


def frame_weight(model: FrameModel, assignment) -> float:
    """Total member weight: sum over groups of density * total length * area."""
    lengths = np.zeros(model.n_groups)
    for i, (_, _, g) in enumerate(model.members):
        lengths[g] += model.member_length(i)
    areas = np.array([s.area for s in assignment])
    return float(model.density * np.dot(lengths, areas))
