"""Variable functioning: replace a set of design variables with a two-parameter
exponential height profile.

A functioned set of column variables (ordered by the height of each section
above the base) is generated from the base value and a decay rate alpha:
value(h) = base / alpha**h.  With alpha in [1, alpha_max] the profile is
uniform at one end of the range and reaches the catalog floor at the top of
the column at the other.  A catalog-indexed stack snaps each target area to
its nearest shape and takes a running minimum of the indices from the base
up; the pool is sorted by area, so every expansion is non-increasing with
height, which is also the buildable configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sections import SectionPool, pool_index_of_nearest_area

__all__ = [
    "STRATEGIES",
    "FunctioningRule",
    "alpha_max",
    "expand_continuous",
    "expand_discrete",
    "reduced_dimension",
    "validate_rules",
]

# search strategies: plain, functioning-seeded initialization, fully reduced
STRATEGIES = ("none", "ifx", "fx")


@dataclass(frozen=True)
class FunctioningRule:
    """One profile rule: which variables it replaces and at what heights.

    ``replaced_variable_ids`` are ordered lowest-height first and
    ``heights`` are the heights of each replaced cross-section above the
    base (the first entry is the base itself at height 0).  The rule always
    has two parameters: the base value and alpha.
    """

    replaced_variable_ids: tuple
    heights: tuple  # cm

    def __post_init__(self):
        ids = tuple(int(i) for i in self.replaced_variable_ids)
        hts = tuple(float(h) for h in self.heights)
        object.__setattr__(self, "replaced_variable_ids", ids)
        object.__setattr__(self, "heights", hts)
        if len(ids) != len(hts):
            raise ValueError("replaced_variable_ids and heights differ in length")
        if len(ids) < 2:
            raise ValueError("a functioning rule must replace at least two variables")
        if len(set(ids)) != len(ids):
            raise ValueError("replaced_variable_ids contains duplicates")
        if hts[0] != 0.0:
            raise ValueError("heights must start at 0 (the base section)")
        if any(b <= a for a, b in zip(hts, hts[1:])):
            raise ValueError("heights must be strictly ascending")


def alpha_max(value_min: float, value_max: float, h_u: float) -> float:
    """Largest admissible decay rate: the profile that starts at the largest
    catalog value and reaches the smallest at the top height h_u."""
    if not 0 < value_min < value_max:
        raise ValueError(f"need 0 < value_min < value_max, got ({value_min}, {value_max})")
    if h_u <= 0:
        raise ValueError(f"top height must be positive, got {h_u}")
    return (value_max / value_min) ** (1.0 / h_u)


def expand_continuous(base_value, alpha, heights) -> np.ndarray:
    """Pure exponential profile: value[k] = base_value / alpha**heights[k].

    Arrays of base values and alphas give one profile per row.  No clamping
    is applied here; callers that must stay inside a variable box (the
    reduced-problem evaluation path) clamp afterwards.
    """
    base_value, alpha = np.asarray(base_value), np.asarray(alpha)
    if np.any(base_value <= 0):
        raise ValueError(f"base_value must be positive, got {base_value}")
    if np.any(alpha < 1.0):
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return base_value[..., None] / np.power(alpha[..., None],
                                            np.asarray(heights, dtype=float))


def expand_discrete(base_index, alpha, heights, pool: SectionPool) -> np.ndarray:
    """Snap the exponential area profile onto the catalog, never increasing.

    Each target area above the base, base area / alpha**h, is snapped to its
    nearest catalog shape in one lookup; a running minimum over the base
    index and the snapped indices then keeps every index at or below the
    one under it.  The pool is sorted by area, so the areas are
    non-increasing with height by construction.  Arrays give one stack per row.
    """
    base_index = np.asarray(base_index)
    if np.any((base_index < 0) | (base_index >= len(pool))):
        raise IndexError(f"base_index {base_index} out of range for pool of {len(pool)}")
    targets = expand_continuous(pool.areas[base_index], alpha, heights)
    snapped = pool_index_of_nearest_area(pool, targets[..., 1:])
    return np.minimum.accumulate(
        np.concatenate((base_index[..., None], snapped), axis=-1), axis=-1)


def validate_rules(rules, domains):
    """The one check of how rules bind to variables: every id names one of
    ``domains``, no variable is in two rules, and each rule's variables
    share one domain (equal domains: one pool for index variables, one
    interval for continuous ones).  Raises ValueError listing every
    problem, one line each."""
    errs = []
    owner = {}  # variable id -> the rule that replaces it
    for r, rule in enumerate(rules):
        ids = rule.replaced_variable_ids
        outside = [i for i in ids if not 0 <= i < len(domains)]
        if outside:
            errs.append(f"functioning[{r}]: variables {outside} outside "
                        f"0..{len(domains) - 1}")
        taken = [i for i in ids if i in owner]
        errs += [f"functioning[{r}]: variable {i} is already in "
                 f"functioning[{owner[i]}] (rules must be disjoint)" for i in taken]
        owner = dict.fromkeys(ids, r) | owner  # an id stays with its first rule
        inside = [i for i in ids if i not in outside]
        differ = [i for i in inside if domains[i] != domains[inside[0]]]
        if differ:
            errs.append(f"functioning[{r}]: variables {differ} do not share the "
                        f"domain of variable {inside[0]}")
    if errs:
        raise ValueError("\n".join(errs))


def reduced_dimension(rules, n: int) -> int:
    """Dimension after functioning: n minus, per rule, the replaced count
    less the two profile parameters; ``rules`` are already validated."""
    return n - sum(len(r.replaced_variable_ids) - 2 for r in rules)
