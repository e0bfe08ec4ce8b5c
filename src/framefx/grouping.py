"""Pairwise variable-interaction detection by differential grouping.

For a deterministic objective f over a box, the interaction magnitude of a
variable pair (i, j) is the non-additivity of f across a four-point stencil:

    lambda_ij = |(f(x + d_i + d_j) - f(x + d_j)) - (f(x + d_i) - f(x))|

with base point x at the lower bounds and each perturbation moving one
coordinate to its interval midpoint.  A separable pair gives lambda = 0 up
to rounding.  The pairs share their base and single-move points, so a full
matrix evaluates (n^2 + n + 2) / 2 points, in this order: the base, the n
single moves, then each pair i < j row by row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .svgplot import heatmap

__all__ = ["InteractionMatrix", "interaction_matrix", "render_matrix", "matrix_fe_cost"]

DEFAULT_ETA = 1e-10


def matrix_fe_cost(n: int) -> int:
    """Distinct stencil points for a full n x n matrix."""
    return (n * n + n + 2) // 2


@dataclass(frozen=True)
class InteractionMatrix:
    n: int
    lam: np.ndarray            # symmetric nonnegative magnitudes
    adjacency: np.ndarray      # boolean, diagonal true
    threshold_used: np.ndarray  # per-pair threshold actually applied
    fe_cost: int


def interaction_matrix(f, lower, upper, eta=DEFAULT_ETA) -> InteractionMatrix:
    """Build the full interaction matrix of ``f`` over [lower, upper].

    ``f`` is called once per stencil point, in stencil order.  ``eta``
    (finite, >= 0) scales the adjacency threshold: a pair is flagged as
    interacting when lambda exceeds eta times the largest objective
    magnitude on its stencil (floored at 1).  Evaluation errors, and a
    non-finite objective value, raise RuntimeError naming the first such point.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    if n < 2:
        raise ValueError("interaction analysis needs at least two variables")
    if (upper <= lower).any():
        raise ValueError("upper bounds must exceed lower bounds")
    if not (np.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and >= 0, got {eta}")

    i, j = np.triu_indices(n, 1)
    single, pair = 1 + np.arange(n), 1 + n + np.arange(i.size)
    points = np.tile(lower, (matrix_fe_cost(n), 1))
    points[single, single - 1] = (lower + upper) / 2.0
    points[pair, i] = points[1 + i, i]
    points[pair, j] = points[1 + j, j]
    values = np.empty(len(points))
    for k, x in enumerate(points):
        try:
            values[k] = float(f(x))
        except Exception as exc:
            raise RuntimeError(
                f"objective evaluation failed at point {x.tolist()}") from exc
    if not np.isfinite(values).all():  # a nan would read as a separable pair
        k = np.flatnonzero(~np.isfinite(values))[0]
        raise RuntimeError(f"objective is {values[k]} at point {points[k].tolist()}")

    f0, fi, fj, fij = values[0], values[1 + i], values[1 + j], values[pair]
    magnitude = np.maximum(1.0, np.abs(np.broadcast_arrays(f0, fi, fj, fij)).max(axis=0))
    lam = np.zeros((n, n))
    thresholds = np.zeros((n, n))
    adjacency = np.eye(n, dtype=bool)
    lam[i, j] = lam[j, i] = np.abs((fij - fj) - (fi - f0))
    thresholds[i, j] = thresholds[j, i] = eta * magnitude
    adjacency[i, j] = adjacency[j, i] = lam[i, j] > thresholds[i, j]
    return InteractionMatrix(n=n, lam=lam, adjacency=adjacency,
                             threshold_used=thresholds, fe_cost=len(points))


def render_matrix(matrix: InteractionMatrix, out_dir) -> dict:
    """Write interactions.csv (lambda values) and interactions.svg (heat map,
    darker = stronger, row 0 at top).  Returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "interactions.csv"
    svg_path = out_dir / "interactions.svg"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in matrix.lam:
            writer.writerow([repr(float(v)) for v in row])
    heatmap(svg_path, matrix.lam.tolist(),
            title=f"variable interactions (n={matrix.n})")
    return {"csv": csv_path, "svg": svg_path}
