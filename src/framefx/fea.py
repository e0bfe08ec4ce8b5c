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

import numpy as np

from .sections import AREA, INERTIA, SECTION_MODULUS, property_block

__all__ = [
    "DOF_NAMES",
    "KERNEL_ID",
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
KERNEL_ID = "banded-cholesky-2"

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
    """Geometry, supports, loads and grouping of one planar frame.

    Construction compiles the model and raises ValueError with one line per
    bad entry, named by its frame-config field path (``members[i]``,
    ``story_levels[j]``, ``groups[g].role``, ...).
    """

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
        # compiled once, checking every entry; not a field, so the kernel
        # is freed with the immutable model
        object.__setattr__(self, "_kernel", _Kernel(self))

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
        return self._kernel.fixed.tolist()


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


def _entry_errors(model: FrameModel, nodes, members, levels, on_level) -> list:
    """One line per bad entry of ``model``, named by its frame-config field
    path; ``on_level`` marks the nodes at each story level, (levels, nodes)."""
    errors = []

    def each(bad, message):
        errors.extend(message(i) for i in np.flatnonzero(bad))

    def outside(index, n):
        return (index < 0) | (index >= n)

    bad_ends = outside(members[:, :2], len(nodes)).any(axis=1)
    each(bad_ends, lambda i: f"members[{i}]: node indices "
                             f"({members[i, 0]}, {members[i, 1]}) invalid")
    coincide = np.zeros(len(members), dtype=bool)
    a, b = members[~bad_ends, :2].T
    coincide[~bad_ends] = (nodes[a] == nodes[b]).all(axis=1)
    each(coincide, lambda i: f"members[{i}]: zero length "
                             f"(nodes {members[i, 0]} and {members[i, 1]} coincide)")
    each(outside(members[:, 2], model.n_groups),
         lambda i: f"members[{i}]: group id {members[i, 2]} out of range")

    if not model.supports:
        errors.append("supports: at least one support required")
    each(outside(np.array([node for node, _ in model.supports], dtype=np.intp),
                 len(nodes)),
         lambda i: f"supports[{i}].node: invalid index {model.supports[i][0]!r}")
    errors += [f"supports[{i}].fix: expected a non-empty subset of {DOF_NAMES}"
               for i, (_, fix) in enumerate(model.supports)
               if not fix or not all(d in DOF_NAMES for d in fix)]
    fixed = {(node, dof) for node, fix in model.supports for dof in fix}
    if all((node, dof) in fixed for node in range(len(nodes)) for dof in DOF_NAMES):
        errors.append("supports: no degree of freedom is left free")
    each(outside(np.array([ld[0] for ld in model.loads], dtype=np.intp), len(nodes)),
         lambda i: f"loads[{i}].node: invalid index {model.loads[i][0]!r}")

    if levels.size and (levels[0] <= 0 or (np.diff(levels) <= 0).any()):
        errors.append("story_levels: must be positive and strictly ascending")
    each(~on_level.any(axis=1),
         lambda j: f"story_levels[{j}]: no node at height {model.story_levels[j]}")

    errors += [f"groups[{g}].role: expected beam|column, got {role!r}"
               for g, role in enumerate(model.group_roles)
               if role not in ("beam", "column")]
    k = model.group_k_factors
    if k and len(k) != model.n_groups:
        errors.append(f"group_k_factors: expected one positive factor per group, "
                      f"got {len(k)} for {model.n_groups} groups")
    errors += [f"groups[{g}].k_factor: expected one positive factor per group, "
               f"got {v!r}" for g, v in enumerate(k) if not v > 0]
    return errors


class _Kernel:
    """One FrameModel compiled to arrays.

    A member's stiffness is linear in its section's area A and inertia I,
    so each member is stored as its global stiffness per unit A and per
    unit I, rotated once here; a design only scales them.  The area term is
    nonzero in few entries (4 of 36 for a member along x or y), so
    ``area_at`` holds their flat indices into the (m, 6, 6) stack,
    ``area_values`` their values and ``area_member`` their members.
    ``force_rotation`` holds the rows of each member's rotation that turn
    its global end forces into the reported local ones.
    ``free`` lists the free DOFs in the model's numbering, or in node (y, x)
    order where that narrows the band, and ``band_src``/``band_dst`` scatter
    the upper triangle of every element matrix straight into column-major
    LAPACK upper band storage, ``band[bw + i - j, j] = K[i, j]``.
    """

    def __init__(self, model: FrameModel):
        nodes = np.array(model.nodes, dtype=float).reshape(-1, 2)
        members = np.array(model.members, dtype=np.intp).reshape(-1, 3)
        levels = np.array(model.story_levels, dtype=float)
        on_level = np.abs(nodes[:, 1] - levels[:, None]) < LEVEL_TOL
        errors = _entry_errors(model, nodes, members, levels, on_level)
        if errors:
            raise ValueError("\n".join(errors))
        self.ends = members[:, :2]
        self.end_nodes = np.ascontiguousarray(self.ends.T)  # (2, m): a ends, b ends
        self.group = members[:, 2]
        dx, dy = (nodes[members[:, 1]] - nodes[members[:, 0]]).T
        self.length = np.hypot(dx, dy)
        self.group_length = np.bincount(self.group, weights=self.length,
                                        minlength=model.n_groups)
        self.is_column = np.array([r == "column" for r in model.group_roles],
                                  dtype=bool)[self.group]
        # sway K factors: member ends in order a0, b0, a1, ...; column ends
        # sum into their node's bin, beam ends into the bin n past it
        self.joint_bins = self.ends.ravel() \
            + len(nodes) * ~np.repeat(self.is_column, 2)
        self.k_factor = np.array(model.group_k_factors or (1.0,) * model.n_groups,
                                 dtype=float)[self.group]

        E, L = model.elastic_modulus, self.length
        t = _rotation(dx / L, dy / L)
        t_inv = t.transpose(0, 2, 1)
        self.stiffness_per_area = t_inv @ (_local_stiffness(E / L, 0.0, L) @ t)
        self.stiffness_per_inertia = t_inv @ (_local_stiffness(0.0, E, L) @ t)
        self.force_rotation = t[:, _FORCE_ROWS]
        self.area_at = np.flatnonzero(self.stiffness_per_area)
        self.area_values = self.stiffness_per_area.ravel()[self.area_at]
        self.area_member = self.area_at // 36

        self.n_dof = 3 * len(model.nodes)
        self.dofs = np.concatenate([3 * self.ends[:, :1] + np.arange(3),
                                    3 * self.ends[:, 1:] + np.arange(3)], axis=1)
        self.supported = np.zeros(len(model.nodes), dtype=bool)
        self.rot_fixed = np.zeros(len(model.nodes), dtype=bool)
        fixed = set()
        for node, dofs in model.supports:
            self.supported[node] = True
            self.rot_fixed[node] |= "rot" in dofs
            fixed.update(3 * node + DOF_NAMES.index(d) for d in dofs)
        self.fixed = np.array(sorted(fixed), dtype=np.intp)
        # sway K factors' recommended joint ratio at a fixed base (1) and a
        # pinned one (10), and the slenderness factor sqrt(fy / E)
        self.support_ratio = np.where(self.rot_fixed, 1.0, 10.0)
        self.slenderness_scale = np.sqrt(model.yield_stress / E)
        self.loads = np.zeros(self.n_dof)
        for node, fx, fy, m in model.loads:
            self.loads[3 * node:3 * node + 3] += (fx, fy, m)
        self.fixed_loads = self.loads[self.fixed]
        # the equilibrium guard's tolerance on a free DOF's imbalance
        self.guard_tol = 1e-8 * max(np.abs(self.loads).sum(), 1.0)

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

        self.level_weights = on_level / on_level.sum(axis=1)[:, None]
        self.story_heights = np.diff(np.concatenate(([0.0], levels)))
        for value in vars(self).values():  # one model may serve many problems
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def _bandwidth(self, free) -> int:
        """Half-bandwidth of the stiffness matrix with the free DOFs numbered
        in the order ``free``: the widest spread of one member's free DOFs."""
        position = np.full(self.n_dof, -1)
        position[free] = np.arange(free.size)
        at = position[self.dofs]
        spread = at.max(axis=1) - np.where(at < 0, self.n_dof, at).min(axis=1)
        return int(spread.max(initial=0))

    def element_stiffness(self, area, inertia) -> np.ndarray:
        """Global stiffness of each member, (m, 6, 6): the bits of
        ``A * stiffness_per_area + I * stiffness_per_inertia``, as a skipped
        area term is an exact zero."""
        ke = inertia[:, None, None] * self.stiffness_per_inertia
        np.add.at(ke.reshape(-1), self.area_at, area[self.area_member] * self.area_values)
        return ke

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
    # imported here, not at module level: scipy.linalg is most of a fresh
    # process's start-up, and only a frame solve needs it
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    kernel = model._kernel
    block = _design(model, assignment)
    lead = block.shape[:-2]
    stack = block.reshape(-1, *block.shape[-2:])
    area, inertia = stack[:, kernel.group, AREA], stack[:, kernel.group, INERTIA]
    p, n_free, bw = len(stack), kernel.free.size, kernel.bandwidth
    u, residual = np.zeros((p, kernel.n_dof)), np.empty((p, kernel.n_dof))
    forces = np.empty((p, kernel.group.size, len(_FORCE_ROWS)))
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
        pivots = cb[-1]
        weakest = int(pivots.argmin())
        if (pivots[weakest] / pivots.max()) ** 2 < 1e-13:
            raise kernel.instability(weakest)

        u[r][kernel.free] = dpbtrs(cb, kernel.free_loads)[0]
        end_forces = np.einsum("mij,mj->mi", ke, u[r][kernel.dofs])
        # K u summed from the element end forces, fixed DOFs included
        residual[r] = np.bincount(kernel.dofs.ravel(), end_forces.ravel(),
                                  minlength=kernel.n_dof)
        # equilibrium guard: K u matches the applied loads at the free DOFs
        imbalance = np.abs(residual[r][kernel.free] - kernel.free_loads).max()
        if imbalance > kernel.guard_tol:
            raise kernel.instability(weakest)
        # the end forces rotated to the member axis
        forces[r] = np.einsum("mij,mj->mi", kernel.force_rotation, end_forces)

    ux = u[:, 0::3]
    # one matrix-vector product per design: the same bits as a design alone
    lateral = np.matmul(kernel.level_weights, ux[:, :, None])[..., 0]
    drifts = lateral.copy()
    drifts[:, 1:] -= lateral[:, :-1]

    def unstack(a):
        return a.reshape(lead + a.shape[1:])[()]

    return AnalysisResult(
        displacements=u.reshape(lead + (-1, 3)),
        member_forces=unstack(forces),
        reactions=unstack(residual[:, kernel.fixed] - kernel.fixed_loads),
        max_lateral_displacement=unstack(np.abs(ux).max(axis=1)),
        story_drifts=unstack(np.abs(drifts, out=drifts)),
        story_heights=kernel.story_heights,
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
