"""Pairwise variable-interaction detection by differential grouping.

For a deterministic objective f over a box, the interaction magnitude of a
variable pair (i, j) is the non-additivity of f across a four-point stencil:

    lambda_ij = |(f(x + d_i + d_j) - f(x + d_j)) - (f(x + d_i) - f(x))|

with base point x at the lower bounds and each perturbation moving one
coordinate to its interval midpoint.  A separable pair gives lambda = 0 up
to rounding.  Evaluations are memoized so a full matrix costs
(n^2 + n + 2) / 2 evaluations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations
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

    ``eta`` scales the adjacency threshold: a pair is flagged as interacting
    when lambda exceeds eta times the largest objective magnitude on its
    stencil (floored at 1).  Evaluation errors propagate with the failing
    point attached.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    if n < 2:
        raise ValueError("interaction analysis needs at least two variables")
    if (upper <= lower).any():
        raise ValueError("upper bounds must exceed lower bounds")
    mid = (lower + upper) / 2.0

    def point(ids):
        x = lower.copy()
        for i in ids:
            x[i] = mid[i]
        return x

    cache = {}  # perturbed ids -> objective value

    def safe_eval(key):
        if key not in cache:
            x = point(key)
            try:
                cache[key] = float(f(x))
            except Exception as exc:
                raise RuntimeError(
                    f"objective evaluation failed at point {x.tolist()}") from exc
        return cache[key]

    f0 = safe_eval(())
    singles = np.array([safe_eval((i,)) for i in range(n)])

    lam = np.zeros((n, n))
    thresholds = np.zeros((n, n))
    adjacency = np.eye(n, dtype=bool)
    for i, j in combinations(range(n), 2):
        fij = safe_eval((i, j))
        fi, fj = singles[i], singles[j]
        value = abs((fij - fj) - (fi - f0))
        thr = eta * max(1.0, abs(f0), abs(fi), abs(fj), abs(fij))
        lam[i, j] = lam[j, i] = value
        thresholds[i, j] = thresholds[j, i] = thr
        if value > thr:
            adjacency[i, j] = adjacency[j, i] = True

    fe_cost = len(cache)
    assert fe_cost == matrix_fe_cost(n), (fe_cost, matrix_fe_cost(n))
    return InteractionMatrix(n=n, lam=lam, adjacency=adjacency,
                             threshold_used=thresholds, fe_cost=fe_cost)


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
