"""Constraint evaluation, violation normalization and feasibility-rule ordering.

Convention: a constraint value g <= 0 is satisfied, g > 0 is violated.  The
normalized violation G divides each positive g by the largest violation of
that constraint seen so far in the run, so G is dimensionless and each
constraint contributes at most 1 for the worst point seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fea import AnalysisResult, FrameModel, member_max_stress
from .sections import AREA, INERTIA, PLASTIC_MODULUS, RADIUS_X, RADIUS_Y, property_block

__all__ = [
    "PHI_COMPRESSION",
    "PHI_TENSION",
    "PHI_BENDING",
    "COLUMN_ELASTIC_COEF",
    "ConstraintSet",
    "Evaluation",
    "GMaxTracker",
    "constraint_values",
    "constraint_labels",
    "column_critical_stress",
    "lrfd_interaction_value",
    "effective_length_factor_sway",
    "penalized_fitness",
    "deb_compare",
]

PHI_COMPRESSION = 0.85
PHI_TENSION = 0.90
PHI_BENDING = 0.90

# Elastic-branch coefficient of the column curve.  Design codes round this to
# 0.877; the unrounded value 2.25 * 0.658**2.25 makes the inelastic and
# elastic branches meet exactly at the slenderness seam (lambda_c = 1.5),
# which the branch-continuity checks rely on.
COLUMN_ELASTIC_COEF = 2.25 * 0.658**2.25

VALID_FAMILIES = ("stress", "lateral_drift", "interstory_drift", "lrfd_interaction")


@dataclass(frozen=True)
class ConstraintSet:
    """Which constraint families apply and their limits: every limit given
    is positive, and each active family has its own."""

    families: frozenset
    stress_allowable: float | None = None   # kN/cm^2
    drift_index_R: float | None = None      # dimensionless Delta_T/H limit
    interstory_index_RI: float = 1.0 / 300.0
    roof_drift_limit_abs: float | None = None  # cm; overrides drift_index_R
    k_mode: str = "fixed"                   # "fixed" (per-group K) or "sway"

    def __post_init__(self):
        if not self.families:
            raise ValueError("at least one constraint family must be active")
        unknown = set(self.families) - set(VALID_FAMILIES)
        if unknown:
            raise ValueError(f"unknown constraint families: {sorted(unknown)}")
        for name in ("stress_allowable", "drift_index_R", "interstory_index_RI",
                     "roof_drift_limit_abs"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if "stress" in self.families and self.stress_allowable is None:
            raise ValueError("stress family requires stress_allowable")
        if "lateral_drift" in self.families and self.drift_index_R is None \
                and self.roof_drift_limit_abs is None:
            raise ValueError("lateral_drift family requires drift_index_R "
                             "or roof_drift_limit_abs")
        if self.k_mode not in ("fixed", "sway"):
            raise ValueError(f"unknown k_mode {self.k_mode!r}")


@dataclass
class Evaluation:
    """One objective-plus-constraints evaluation (one FE charge), or a whole
    population of them when every field carries a leading design axis:
    objective (p,), violations (p, c), normalized_violation (p,).

    ``normalized_violation`` is set only where designs are ranked, against a
    GMaxTracker snapshot; a bare evaluation leaves it None."""

    objective: float
    violations: np.ndarray
    normalized_violation: float | None = None

    def __post_init__(self):
        self.violations = np.asarray(self.violations, dtype=float)

    @property
    def feasible(self):
        """Whether every constraint holds; one bool per design of a population."""
        ok = (self.violations <= 0).all(axis=-1)
        return bool(ok) if ok.ndim == 0 else ok


class GMaxTracker:
    """Running per-constraint maximum violation for normalization.

    Candidates inside one generation are all normalized against the same
    snapshot (plus their own violations, so a first-ever violation counts
    as 1); ``merge`` folds a generation's violations into the snapshot once,
    keeping results independent of evaluation order within the generation.
    """

    def __init__(self):
        self.gmax = 0.0

    def normalize(self, violations):
        """Normalized violation of one design (a float), or of each row of a
        (p, c) generation (a (p,) array)."""
        g = np.asarray(violations, dtype=float)
        pos = np.maximum(g, 0.0)
        ratios = np.divide(pos, np.maximum(self.gmax, pos), out=np.zeros_like(pos),
                           where=pos > 0)
        total = ratios.sum(axis=-1)
        return float(total) if g.ndim == 1 else total

    def merge(self, violations_batch):
        """Fold a generation's violations, one row per design, into the snapshot."""
        g = np.asarray(violations_batch, dtype=float)
        self.gmax = np.maximum(self.gmax, g.max(axis=0))


def penalized_fitness(objective, normalized_violation_G, f_max_feasible) -> float:
    """Deb-style scalar fitness: feasible points keep their objective,
    infeasible points rank after the worst feasible one by their violation.

    With no feasible member in the population pass ``f_max_feasible = 0`` so
    ranking degenerates to the violation comparison.
    """
    if normalized_violation_G <= 0:
        return float(objective)
    return float(f_max_feasible) + float(normalized_violation_G)


def deb_compare(a: Evaluation, b: Evaluation):
    """Feasibility-rule ordering: -1 if a ranks better, 1 if b does, 0 on ties.

    Feasible solutions compare by objective, a feasible solution beats any
    infeasible one, and infeasible solutions compare by normalized violation.
    Callers keep the incumbent (first argument) on ties.  Two single
    evaluations give an int; populations compare elementwise, broadcasting
    like numpy, and give an int array.
    """
    feasible_a, feasible_b = a.feasible, b.feasible
    value_a = np.where(feasible_a, a.objective, a.normalized_violation)
    value_b = np.where(feasible_b, b.objective, b.normalized_violation)
    order = np.where(feasible_a == feasible_b,
                     (value_a > value_b).astype(int) - (value_a < value_b),
                     np.where(feasible_a, -1, 1))
    return int(order) if order.ndim == 0 else order


def _scalar_or_array(x):
    return float(x) if x.ndim == 0 else x


def column_critical_stress(lambda_c, fy):
    """Column-curve critical stress: inelastic branch up to lambda_c = 1.5,
    elastic beyond; the branches meet exactly at the seam.  ``lambda_c`` may
    be an array."""
    lambda_c = np.asarray(lambda_c, dtype=float)
    squared = lambda_c**2
    with np.errstate(divide="ignore"):
        stress = np.where(lambda_c <= 1.5, 0.658**squared,
                          COLUMN_ELASTIC_COEF / squared) * fy
    return _scalar_or_array(stress)


def lrfd_interaction_value(axial_ratio, moment_ratio):
    """Beam-column interaction value minus 1 (g <= 0 satisfied).

    ``axial_ratio`` is Pu / (phi_c * P_n), ``moment_ratio`` is
    Mu / (phi_b * M_n); the low-axial branch halves the axial term.  Either
    may be an array.
    """
    value = np.where(np.asarray(axial_ratio) < 0.2, axial_ratio / 2.0 + moment_ratio,
                     axial_ratio + (8.0 / 9.0) * moment_ratio) - 1.0
    return _scalar_or_array(value)


def effective_length_factor_sway(g_a, g_b):
    """Sway-frame effective length factor from end stiffness ratios
    (Dumonteil's closed-form fit to the alignment chart); takes arrays."""
    total = g_a + g_b
    return _scalar_or_array(np.sqrt((1.6 * g_a * g_b + 4.0 * total + 7.5) / (total + 7.5)))


def _joint_stiffness_ratios(kernel, members):
    """Per-node G = sum(I_col/L_col) / sum(I_beam/L_beam) for sway K factors,
    (..., n); ``members`` holds each member's section properties, (..., m, k)."""
    stiff = (members[..., INERTIA] / kernel.length).repeat(2, axis=-1)
    n = kernel.supported.size
    designs = stiff.reshape(-1, stiff.shape[-1])
    # one bincount over every design, each summing into its own 2n bins
    bins = kernel.joint_bins + np.arange(0, 2 * n * len(designs), 2 * n)[:, None]
    sums = np.bincount(bins.ravel(), designs.ravel(), minlength=designs.shape[0] * 2 * n)
    sums = sums.reshape(stiff.shape[:-1] + (2 * n,))
    col, beam = sums[..., :n], sums[..., n:]
    joint = np.divide(col, beam, out=np.full_like(col, 10.0), where=beam > 0)
    np.copyto(joint, kernel.support_ratio, where=kernel.supported)
    return joint


def _member_k_factors(kernel, members, cs: ConstraintSet):
    """Each member's effective length factor, (..., m); a beam's goes unused,
    as its axial ratio is 0."""
    if cs.k_mode == "fixed":
        return kernel.k_factor
    ratios = _joint_stiffness_ratios(kernel, members).take(kernel.end_nodes, axis=-1)
    return effective_length_factor_sway(ratios[..., 0, :], ratios[..., 1, :])


def constraint_values(model: FrameModel, assignment, result: AnalysisResult,
                      cs: ConstraintSet) -> np.ndarray:
    """All active constraint values for one analyzed design, fixed layout;
    (p, c) for a stack of p designs analyzed together.

    Layout (only active families present): per-member stress, roof drift,
    per-story inter-story drift, per-member strength interaction.
    ``assignment`` takes the forms ``fea.analyze`` takes.
    """
    block = property_block(assignment)
    parts = []
    if "stress" in cs.families:
        sigma = member_max_stress(model, block, result)
        parts.append(np.abs(sigma / cs.stress_allowable) - 1.0)
    if "lateral_drift" in cs.families:
        if cs.roof_drift_limit_abs is not None:
            g = result.max_lateral_displacement - cs.roof_drift_limit_abs
        else:
            g = result.max_lateral_displacement / model.height - cs.drift_index_R
        parts.append(np.expand_dims(g, -1))
    if "interstory_drift" in cs.families:
        parts.append(result.story_drifts / result.story_heights - cs.interstory_index_RI)
    if "lrfd_interaction" in cs.families:
        kernel = model._kernel
        members = block.take(kernel.group, axis=-2)
        fy = model.yield_stress
        area = members[..., AREA]
        # beams carry negligible axial force in these frames, so they are
        # checked in bending alone: an axial ratio of 0 gives moment_ratio - 1
        axial = np.where(kernel.is_column, result.member_forces[..., 0], 0.0)
        max_moment = np.maximum(np.abs(result.member_forces[..., 2]),
                                np.abs(result.member_forces[..., 3]))
        m_n = members[..., PLASTIC_MODULUS] * fy
        moment_ratio = max_moment / (PHI_BENDING * m_n)
        # weak-axis slenderness
        min_radius = np.minimum(members[..., RADIUS_X], members[..., RADIUS_Y])
        lambda_c = (_member_k_factors(kernel, members, cs) * kernel.length) \
            / (min_radius * math.pi) * kernel.slenderness_scale
        p_n = area * column_critical_stress(lambda_c, fy)
        # -axial / c has the bits of axial / -c
        axial_ratio = axial / np.where(axial < 0,  # compression
                                       -(PHI_COMPRESSION * p_n), PHI_TENSION * area * fy)
        parts.append(lrfd_interaction_value(axial_ratio, moment_ratio))
    return np.concatenate(parts, axis=-1)


def constraint_labels(model: FrameModel, cs: ConstraintSet):
    """Human-readable names matching the constraint_values layout."""
    labels = []
    if "stress" in cs.families:
        labels += [f"stress[m{i}]" for i in range(len(model.members))]
    if "lateral_drift" in cs.families:
        labels.append("roof_drift")
    if "interstory_drift" in cs.families:
        labels += [f"story_drift[{j}]" for j in range(len(model.story_levels))]
    if "lrfd_interaction" in cs.families:
        labels += [f"lrfd[m{i}]" for i in range(len(model.members))]
    return labels
