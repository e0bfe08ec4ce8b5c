"""Linear-elastic planar frame analysis by the direct stiffness method.

Elements are two-node Euler-Bernoulli frame members (axial + bending, 3 DOF
per node: ux, uy, rot).  Analysis is first order.  Each model is compiled
once into an array kernel (index maps, unit element stiffnesses and a
scatter into banded storage); a design then costs one element build, one
scatter, and a banded Cholesky factorization and solve, whose work grows
with the half-bandwidth of the DOF numbering rather than with the full
matrix.  A stack of designs is analyzed in one call, each with its own bits.

Units: cm, kN, kN*cm, kg (density in kg/cm^3, stresses in kN/cm^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .sections import AREA, INERTIA, SECTION_MODULUS, property_block

__all__ = [
    "DOF_NAMES",
    "KERNEL_ID",
    "LEVEL_TOL",
    "FrameModel",
    "AnalysisResult",
    "StructuralInstabilityError",
    "analyze",
    "constrained_stiffness",
    "member_max_stress",
    "frame_weight",
]

DOF_NAMES = ("ux", "uy", "rot")
LEVEL_TOL = 1e-6  # cm; a node within this of a story level lies on it
# names the solver that produced a result; stored with experiment records,
# whose last bits depend on it
KERNEL_ID = "banded-cholesky-1"

# rows of the local end-force vector reported per member, in the order of
# AnalysisResult.member_forces columns
_FORCE_ROWS = [3, 1, 2, 5]  # axial (end b, tension +), shear, moment_a, moment_b


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
            if tuple(self.nodes[a]) == tuple(self.nodes[b]):
                raise ValueError(f"member ({a}, {b}) has zero length")
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
        if self.group_k_factors and (len(self.group_k_factors) != n_g
                                     or not all(k > 0 for k in self.group_k_factors)):
            raise ValueError("group_k_factors needs one positive factor per group")

    @property
    def n_groups(self) -> int:
        return len(self.group_roles)

    @property
    def height(self) -> float:
        """Total frame height (top story level, or highest node)."""
        if self.story_levels:
            return float(self.story_levels[-1])
        return max(y for _, y in self.nodes)

    def constrained_dofs(self):
        """Sorted global DOF indices fixed by supports."""
        out = set()
        for node, dofs in self.supports:
            for d in dofs:
                out.add(3 * node + DOF_NAMES.index(d))
        return sorted(out)

    @cached_property
    def _kernel(self) -> "_Kernel":
        # stored on the instance: the model is immutable, and the kernel is
        # freed with it
        return _Kernel(self)


def _local_stiffness(ea, ei, L):
    """Local 6x6 stiffness of each member, (m, 6, 6), from EA/L, EI and L."""
    ea, ei, L = np.broadcast_arrays(ea, ei, L)
    z = np.zeros_like(L)
    k1, k2, k3, k4 = 12 * ei / L**3, 6 * ei / L**2, 4 * ei / L, 2 * ei / L
    rows = ((ea, z, z, -ea, z, z), (z, k1, k2, z, -k1, k2), (z, k2, k3, z, -k2, k4),
            (-ea, z, z, ea, z, z), (z, -k1, -k2, z, k1, -k2), (z, k2, k4, z, -k2, k3))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def _rotation(c, s):
    """Global-to-local transform of each member, (m, 6, 6)."""
    t = np.zeros((c.size, 6, 6))
    for o in (0, 3):
        t[:, o, o] = t[:, o + 1, o + 1] = c
        t[:, o, o + 1] = s
        t[:, o + 1, o] = -s
        t[:, o + 2, o + 2] = 1.0
    return t


class _Kernel:
    """One FrameModel compiled to arrays.

    A member's stiffness is linear in its section's area A and inertia I,
    so each member is stored as its global stiffness and end-force rows per
    unit A and per unit I, rotated once here; a design only scales them.
    ``free`` lists the free DOFs in the model's numbering, or in node (y, x)
    order where that narrows the band, and ``band_src``/``band_dst`` scatter
    the upper triangle of every element matrix straight into column-major
    LAPACK upper band storage, ``band[bw + i - j, j] = K[i, j]``.
    """

    def __init__(self, model: FrameModel):
        nodes = np.array(model.nodes, dtype=float).reshape(-1, 2)
        members = np.array(model.members, dtype=np.intp).reshape(-1, 3)
        self.ends = members[:, :2]
        self.group = members[:, 2]
        dx, dy = (nodes[members[:, 1]] - nodes[members[:, 0]]).T
        self.length = np.hypot(dx, dy)
        self.group_length = np.bincount(self.group, weights=self.length,
                                        minlength=model.n_groups)
        self.is_column = np.array([r == "column" for r in model.group_roles],
                                  dtype=bool)[self.group]
        self.k_factor = np.array(model.group_k_factors or (1.0,) * model.n_groups,
                                 dtype=float)[self.group]

        E, L = model.elastic_modulus, self.length
        t = _rotation(dx / L, dy / L)
        t_inv = t.transpose(0, 2, 1)
        k_area = _local_stiffness(E / L, 0.0, L) @ t
        k_inertia = _local_stiffness(0.0, E, L) @ t
        self.stiffness_per_area = t_inv @ k_area
        self.stiffness_per_inertia = t_inv @ k_inertia
        self.forces_per_area = k_area[:, _FORCE_ROWS]
        self.forces_per_inertia = k_inertia[:, _FORCE_ROWS]

        self.n_dof = 3 * len(model.nodes)
        self.dofs = np.concatenate([3 * self.ends[:, :1] + np.arange(3),
                                    3 * self.ends[:, 1:] + np.arange(3)], axis=1)
        self.fixed = np.array(model.constrained_dofs(), dtype=np.intp)
        self.loads = np.zeros(self.n_dof)
        for node, fx, fy, m in model.loads:
            self.loads[3 * node:3 * node + 3] += (fx, fy, m)

        is_free = np.ones(self.n_dof, dtype=bool)
        is_free[self.fixed] = False
        by_node = (3 * np.lexsort((nodes[:, 0], nodes[:, 1]))[:, None]
                   + np.arange(3)).ravel()
        # min keeps the model's own numbering on a tie
        self.free = min((np.flatnonzero(is_free), by_node[is_free[by_node]]),
                        key=self._bandwidth)
        self.free_loads = self.loads[self.free]
        position = np.full(self.n_dof, -1)
        position[self.free] = np.arange(self.free.size)
        row, col = np.broadcast_arrays(position[self.dofs][:, :, None],
                                       position[self.dofs][:, None, :])
        upper = (row >= 0) & (row <= col)
        self.bandwidth = int((col - row)[upper].max(initial=0))
        self.band_src = np.flatnonzero(upper)
        self.band_dst = col[upper] * (self.bandwidth + 1) + self.bandwidth \
            + row[upper] - col[upper]

        self.rot_fixed = np.zeros(len(model.nodes), dtype=bool)
        self.supported = np.zeros(len(model.nodes), dtype=bool)
        for node, dofs in model.supports:
            self.supported[node] = True
            self.rot_fixed[node] |= "rot" in dofs

        levels = np.array(model.story_levels, dtype=float)
        on_level = np.abs(nodes[:, 1] - levels[:, None]) < LEVEL_TOL
        counts = on_level.sum(axis=1)
        missing = levels[counts == 0]
        self.missing_level = float(missing[0]) if missing.size else None
        self.level_weights = on_level / np.maximum(counts, 1)[:, None]
        self.story_heights = np.diff(np.concatenate(([0.0], levels)))

    def _bandwidth(self, free) -> int:
        """Half-bandwidth of the stiffness matrix with the free DOFs numbered
        in the order ``free``: the widest spread of one member's free DOFs."""
        position = np.full(self.n_dof, -1)
        position[free] = np.arange(free.size)
        at = position[self.dofs]
        spread = at.max(axis=1) - np.where(at < 0, self.n_dof, at).min(axis=1)
        return int(spread.max(initial=0))

    def element_stiffness(self, area, inertia) -> np.ndarray:
        """Global stiffness of each member, (m, 6, 6)."""
        return area[:, None, None] * self.stiffness_per_area \
            + inertia[:, None, None] * self.stiffness_per_inertia

    def instability(self, free_index) -> StructuralInstabilityError:
        dof = int(self.free[min(free_index, self.free.size - 1)])
        return StructuralInstabilityError(dof // 3, DOF_NAMES[dof % 3])


@dataclass(frozen=True)
class AnalysisResult:
    """One design's results; a stack's carry a leading design axis, but for
    ``story_heights``."""

    displacements: np.ndarray       # (n_nodes, 3): ux, uy, rot
    member_forces: np.ndarray       # (n_members, 4): axial (tension +), shear,
    #                                 moment_a, moment_b; kN and kN*cm
    reactions: np.ndarray           # (n_constrained,) kN / kN*cm
    max_lateral_displacement: float  # cm
    story_drifts: np.ndarray        # cm, per story
    story_heights: np.ndarray       # cm, per story


def _design(model: FrameModel, assignment) -> np.ndarray:
    """``assignment`` as its (G, k) section-property block or (p, G, k)
    stack of blocks, checked to hold one row per group."""
    block = property_block(assignment)
    if block.shape[-2] != model.n_groups:
        raise ValueError(
            f"assignment length {block.shape[-2]} != group count {model.n_groups}"
        )
    return block


def constrained_stiffness(model: FrameModel, assignment) -> np.ndarray:
    """Dense stiffness matrix of one design after support elimination (free
    DOFs only, ascending)."""
    kernel = model._kernel
    members = _design(model, assignment)[kernel.group]
    ke = kernel.element_stiffness(members[:, AREA], members[:, INERTIA])
    n = kernel.n_dof
    flat = kernel.dofs[:, :, None] * n + kernel.dofs[:, None, :]
    K = np.bincount(flat.ravel(), ke.ravel(), minlength=n * n).reshape(n, n)
    free = np.sort(kernel.free)
    return K[np.ix_(free, free)]


def analyze(model: FrameModel, assignment) -> AnalysisResult:
    """Solve K u = F for the frame under its nodal loads.

    ``assignment`` is one SectionShape or property row per member group,
    their (G, k) block, or a (p, G, k) stack of p designs, whose results
    carry a leading design axis.  Raises StructuralInstabilityError when a
    constrained stiffness matrix is singular, naming the offending node/DOF
    of the first such design in the stack.
    """
    kernel = model._kernel
    block = _design(model, assignment)
    if kernel.free.size == 0:
        raise ValueError("model has no free degrees of freedom")
    lead = block.shape[:-2]
    stack = block.reshape(-1, *block.shape[-2:])
    area, inertia = stack[:, kernel.group, AREA], stack[:, kernel.group, INERTIA]
    p, n_free, bw = len(stack), kernel.free.size, kernel.bandwidth
    u, residual = np.zeros((2, p, kernel.n_dof))
    forces = np.empty((p, kernel.group.size, len(_FORCE_ROWS)))
    applied = np.abs(kernel.loads).sum()
    # one design at a time, in stack order: its (m, 6, 6) element matrices
    # are small enough to be reused memory, where a stack's would be fresh
    # pages, and the first unstable design raises
    for r in range(p):
        ke = kernel.element_stiffness(area[r], inertia[r])
        band = np.bincount(kernel.band_dst, ke.ravel()[kernel.band_src],
                           minlength=n_free * (bw + 1))
        cb, info = dpbtrf(band.reshape(n_free, bw + 1).T, overwrite_ab=1)
        if info:  # the info-th leading minor is not positive definite
            raise kernel.instability(info - 1)
        # a mechanism can survive factorization with a roundoff-sized pivot;
        # stable frames here sit many orders above this threshold
        weakest = int(np.argmin(cb[-1]))
        if (cb[-1, weakest] / cb[-1].max()) ** 2 < 1e-13:
            raise kernel.instability(weakest)

        u[r][kernel.free] = dpbtrs(cb, kernel.free_loads)[0]
        u_members = u[r][kernel.dofs]
        # K u summed from the element end forces, fixed DOFs included
        residual[r] = np.bincount(kernel.dofs.ravel(),
                                  np.einsum("mij,mj->mi", ke, u_members).ravel(),
                                  minlength=kernel.n_dof)
        # equilibrium guard: reactions balance the applied loads, so the x
        # and y components of K u sum to zero
        imbalance = max(abs(residual[r, 0::3].sum()), abs(residual[r, 1::3].sum()))
        if applied > 0 and imbalance > 1e-8 * max(applied, 1.0):
            raise kernel.instability(weakest)
        forces[r] = np.einsum("mij,mj->mi",
                              area[r, :, None, None] * kernel.forces_per_area
                              + inertia[r, :, None, None] * kernel.forces_per_inertia,
                              u_members)

    if kernel.missing_level is not None:
        raise ValueError(f"no nodes found at story level {kernel.missing_level}")
    ux = u[:, 0::3]
    # one matrix-vector product per design: the same bits as a design alone
    lateral = np.matmul(kernel.level_weights, ux[:, :, None])[..., 0]
    drifts = lateral.copy()
    drifts[:, 1:] -= lateral[:, :-1]

    def unstack(a):
        return a.reshape(lead + a.shape[1:])[()]

    return AnalysisResult(
        displacements=unstack(u.reshape(p, -1, 3)),
        member_forces=unstack(forces),
        reactions=unstack(residual[:, kernel.fixed] - kernel.loads[kernel.fixed]),
        max_lateral_displacement=unstack(np.abs(ux).max(axis=1)),
        story_drifts=unstack(np.abs(drifts)),
        story_heights=kernel.story_heights.copy(),
    )


def member_max_stress(model: FrameModel, assignment, result: AnalysisResult) -> np.ndarray:
    """Combined elastic stress per member: |N|/A + max|M|/Sx, kN/cm^2; one
    row per design of a stack."""
    members = _design(model, assignment)[..., model._kernel.group, :]
    f = result.member_forces
    max_moment = np.maximum(np.abs(f[..., 2]), np.abs(f[..., 3]))
    return np.abs(f[..., 0]) / members[..., AREA] \
        + max_moment / members[..., SECTION_MODULUS]


def frame_weight(model: FrameModel, assignment):
    """Total member weight: sum over groups of density * total length * area;
    one weight per design of a stack."""
    # contiguous: BLAS may sum a strided vector in another order; one dot
    # product per design gives each the bits it gets alone
    areas = np.ascontiguousarray(_design(model, assignment)[..., AREA])
    group_length = model._kernel.group_length[:, None]
    return model.density * np.matmul(areas[..., None, :], group_length)[..., 0, 0]
