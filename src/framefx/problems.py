"""Concrete optimization problems behind one uniform interface.

Two families: the N-segment stepped cantilever column with circular
sections (closed-form physics, the verification workhorse) and
config-driven steel frames (finite-element analysis with catalog
sections).  Index-coded variables are searched as continuous values and
rounded to the nearest catalog index only at evaluation time.
``Problem.evaluate`` scores one design (n,) or a generation (p, n) in one
call, each design with the same bits in any generation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fea
from .config import BUNDLED_CONFIGS, build_frame, load_frame_config
from .evaluate import Evaluation, constraint_labels, constraint_values
from .fx import FunctioningRule, alpha_max, expand_continuous, expand_discrete, \
    reduced_dimension, validate_rules
from .sections import AREA, PROPERTIES, SectionPool, interpolated_properties

__all__ = [
    "Domain",
    "Problem",
    "Probe",
    "SteppedColumnSpec",
    "stepped_column_problem",
    "frame_problem",
    "attach_fx",
    "sphere_problem",
]


@dataclass(frozen=True)
class Domain:
    """One decision variable: a continuous interval or a catalog index range."""

    kind: str                      # "continuous" | "index"
    lower: float
    upper: float
    pool: SectionPool | None = None

    def __post_init__(self):
        if self.kind not in ("continuous", "index"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.upper < self.lower:
            raise ValueError(f"empty domain [{self.lower}, {self.upper}]")
        if self.kind == "index" and self.pool is None:
            raise ValueError("index domains need a pool")


@dataclass(frozen=True)
class Probe:
    """Penalized continuous relaxation used by interaction analysis."""

    f: object            # callable(np.ndarray) -> float
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class Problem:
    name: str
    domains: tuple
    n_constraints: int
    evaluate: object              # callable((n,) or (p, n) array) -> Evaluation
    decode: object                # callable(np.ndarray) -> dict
    rules: tuple = ()             # declared functioning rules (may be unused)
    probe: Probe | None = None
    frame: object = None          # FrameContext for frame problems
    base_problem: "Problem | None" = None
    expand_full: object = None    # reduced -> full raw vectors (reduced problems)
    # read-only bounds of the domains
    lower: np.ndarray = field(init=False, repr=False, compare=False)
    upper: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for bound in ("lower", "upper"):
            values = np.array([getattr(d, bound) for d in self.domains], dtype=float)
            values.flags.writeable = False
            setattr(self, bound, values)

    @property
    def dimension(self) -> int:
        return len(self.domains)

    @property
    def is_reduced(self) -> bool:
        return self.base_problem is not None


@dataclass(frozen=True)
class FrameContext:
    model: fea.FrameModel
    pools: tuple
    constraint_set: object
    strategy_defaults: object     # read-only mapping: population, max_fe


@dataclass(frozen=True)
class SteppedColumnSpec:
    """Stepped cantilever: N stacked circular segments, lateral tip load,
    bending-stress limit at the bottom of every segment."""

    segment_count: int = 50
    segment_length: float = 10.0      # cm
    tip_load: float = 10.0            # kN
    density: float = 0.00785          # kg/cm^3
    allowable_stress: float = 16.0    # kN/cm^2
    radius_min: float = 3.0           # cm
    radius_max: float = 50.0          # cm

    def __post_init__(self):
        if self.segment_count < 1:
            raise ValueError("segment_count must be >= 1")
        for f in ("segment_length", "tip_load", "density", "allowable_stress"):
            if getattr(self, f) <= 0:
                raise ValueError(f"{f} must be positive")
        if not 0 < self.radius_min < self.radius_max:
            raise ValueError("need 0 < radius_min < radius_max")

    @property
    def heights(self) -> np.ndarray:
        """Height of each segment's bottom above the base: (i-1) * L."""
        return np.arange(self.segment_count) * self.segment_length

    @property
    def moments(self) -> np.ndarray:
        """Bending moment at each segment's bottom: P * L * (N - i + 1)."""
        n = self.segment_count
        return self.tip_load * self.segment_length * np.arange(n, 0, -1)


def stepped_column_problem(spec: SteppedColumnSpec | None = None) -> Problem:
    spec = spec or SteppedColumnSpec()
    n = spec.segment_count
    four_moments = 4.0 * spec.moments  # bending stress 4 M / (pi r^3), computed once
    rho_l_pi = spec.density * spec.segment_length * math.pi
    # fixed penalty scale: worst-case weight, so the probe is stateless
    penalty_scale = rho_l_pi * n * spec.radius_max**2

    def evaluate(x) -> Evaluation:
        r = np.asarray(x, dtype=float)
        weight = rho_l_pi * _row_dot(r, r)
        sigma = four_moments / (math.pi * r**3)
        return Evaluation(objective=weight, violations=sigma - spec.allowable_stress)

    # weight-plus-penalty relaxation for interaction analysis; the penalty
    # stress includes the axial term from the self-weight carried by each
    # segment (everything at and above it), which is what couples every
    # radius to the ones below it; the lateral-load bending term alone is
    # additive across segments and would hide the structure; its weight keeps
    # np.dot, whose bits the interaction matrices are built from
    def probe_f(x):
        r = np.asarray(x, dtype=float)
        area = math.pi * r**2
        weight = rho_l_pi * float(np.dot(r, r))
        carried = np.cumsum((spec.density * spec.segment_length * area)[::-1])[::-1]
        gravity_kn = carried * 9.81e-3  # kg -> kN
        sigma = gravity_kn / area + four_moments / (math.pi * r**3)
        overshoot = np.maximum(sigma / spec.allowable_stress - 1.0, 0.0)
        return weight + penalty_scale * float(overshoot.sum())

    def decode(x):
        return {"radii_cm": [float(v) for v in np.asarray(x, dtype=float)]}

    # one profile over the whole column
    rules = (FunctioningRule(tuple(range(n)), tuple(spec.heights)),) if n >= 2 else ()
    return Problem(
        name=f"stepped-column-{n}",
        domains=(Domain("continuous", spec.radius_min, spec.radius_max),) * n,
        n_constraints=n,
        evaluate=evaluate,
        decode=decode,
        rules=rules,
        probe=Probe(f=probe_f, lower=np.full(n, spec.radius_min),
                    upper=np.full(n, spec.radius_max)),
    )


def _catalog_index(x, lower, upper):
    """Nearest catalog index of each value, clipped into [lower, upper];
    np.rint rounds half-way values to even, as round() does."""
    return np.clip(np.rint(x), lower, upper).astype(np.intp)


def _row_dot(a, b):
    """Dot product of each row of ``a`` and ``b``: one BLAS dot per row, so a
    row gets the same bits in any generation."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def frame_problem(config_source) -> Problem:
    """Discrete frame design problem from a config file, bundled name or dict.

    A bundled frame is compiled once per process, and each call gets a new
    Problem and Probe around its read-only parts; a path or a dict may
    change between calls, so it is loaded and compiled on every call.
    """
    name = None if isinstance(config_source, dict) else str(config_source)
    if name in BUNDLED_CONFIGS:
        shared = _bundled_frame(name)
        return replace(shared, probe=replace(shared.probe))
    return _compile_frame(load_frame_config(config_source))


@functools.cache
def _bundled_frame(name) -> Problem:
    return _compile_frame(load_frame_config(name))


def _compile_frame(doc) -> Problem:
    """The problem of a checked config doc.  A design is scored as one (G, k)
    section-property block, gathered from the frame's stacked pool tables or
    interpolated in them by the probe."""
    model, pools, cs, group_rules, defaults = build_frame(doc)

    domains = tuple(Domain("index", 0, len(pool) - 1, pool=pool) for pool in pools)
    n_constraints = len(constraint_labels(model, cs))

    distinct = list(dict.fromkeys(pools))  # each pool once, in first-use order
    pool_groups = [np.flatnonzero([p is pool for p in pools]) for pool in distinct]
    starts = np.cumsum([0] + [len(pool) for pool in distinct])
    table = np.concatenate([pool.properties for pool in distinct])
    offset = np.array([starts[distinct.index(pool)] for pool in pools])
    upper = np.array([len(pool) - 1 for pool in pools])

    def score(block):
        result = fea.analyze(model, block)
        g = constraint_values(model, block, result, cs)
        return fea.frame_weight(model, block), g

    def evaluate(x) -> Evaluation:
        weight, g = score(table[offset + _catalog_index(x, 0, upper)])
        return Evaluation(objective=weight, violations=g)

    def decode(x):
        idx = _catalog_index(x, 0, upper)
        return {
            "section_indices": idx.tolist(),
            "sections": [pool.names[i] for pool, i in zip(pools, idx)],
            "areas_cm2": table[offset + idx, AREA].tolist(),
        }

    penalty_scale = 2.0 * fea.frame_weight(model, table[offset + upper])
    probe_lo = np.array([pool.min_area for pool in pools])
    probe_hi = np.array([pool.max_area for pool in pools])
    for array in (table, offset, upper, probe_lo, probe_hi):
        array.flags.writeable = False

    def probe_f(areas):
        areas = np.asarray(areas, dtype=float)
        block = np.empty((len(pools), len(PROPERTIES)))
        for pool, groups in zip(distinct, pool_groups):
            block[groups] = interpolated_properties(pool, areas[groups])
        weight, g = score(block)
        return weight + penalty_scale * float(np.maximum(g, 0.0, out=g).sum())

    context = FrameContext(model=model, pools=tuple(pools), constraint_set=cs,
                           strategy_defaults=defaults)
    return Problem(
        name=doc["name"],
        domains=domains,
        n_constraints=n_constraints,
        evaluate=evaluate,
        decode=decode,
        rules=group_rules,
        probe=Probe(f=probe_f, lower=probe_lo, upper=probe_hi),
        frame=context,
    )


def attach_fx(problem: Problem) -> Problem:
    """Reduced-space view: functioned variables replaced by (base, alpha).

    The reduced evaluation expands to a full vector (clamped into the
    original box for continuous variables, snapped onto the catalog for index
    variables) and delegates to the full problem, so one reduced evaluation
    charges exactly one FE.
    """
    if problem.is_reduced:
        raise ValueError("problem is already reduced")
    rules = problem.rules
    if not rules:
        raise ValueError(f"{problem.name}: no functioning rules declared")
    n = problem.dimension
    validate_rules(rules, problem.domains)

    replaced = np.zeros(n, dtype=bool)
    replaced[[i for r in rules for i in r.replaced_variable_ids]] = True
    untouched = np.flatnonzero(~replaced)

    reduced_domains = []
    compiled = []  # per rule: (ids, heights, base domain, offset of its parameters)
    for rule in rules:
        ids = rule.replaced_variable_ids
        base_dom = problem.domains[ids[0]]
        if base_dom.kind == "index":
            lo, hi = base_dom.pool.min_area, base_dom.pool.max_area
        else:
            lo, hi = base_dom.lower, base_dom.upper
        compiled.append((np.array(ids), np.array(rule.heights), base_dom,
                         len(reduced_domains)))
        reduced_domains += [base_dom,
                            Domain("continuous", 1.0, alpha_max(lo, hi, rule.heights[-1]))]
    reduced_domains.extend(problem.domains[i] for i in untouched)
    reduced_domains = tuple(reduced_domains)
    n_params = 2 * len(rules)

    assert len(reduced_domains) == reduced_dimension(rules, n)

    def expand(xr):
        xr = np.asarray(xr, dtype=float)
        full = np.empty(xr.shape[:-1] + (n,))
        for ids, heights, dom, k in compiled:
            alpha = np.maximum(xr[..., k + 1], 1.0)
            if dom.kind == "index":
                base_index = _catalog_index(xr[..., k], dom.lower, dom.upper)
                full[..., ids] = expand_discrete(base_index, alpha, heights, dom.pool)
            else:
                base_value = np.minimum(np.maximum(xr[..., k], dom.lower), dom.upper)
                values = expand_continuous(base_value, alpha, heights)
                np.minimum(np.maximum(values, dom.lower, out=values), dom.upper, out=values)
                full[..., ids] = values
        full[..., untouched] = xr[..., n_params:]
        return full

    def evaluate(xr) -> Evaluation:
        return problem.evaluate(expand(xr))

    def decode(xr):
        xr = np.asarray(xr, dtype=float)
        reduced = {f"rule{ri}": {"base": float(xr[k]), "alpha": float(xr[k + 1])}
                   for ri, (*_, k) in enumerate(compiled)}
        out = problem.decode(expand(xr))
        out["reduced"] = reduced
        return out

    return Problem(
        name=problem.name,
        domains=reduced_domains,
        n_constraints=problem.n_constraints,
        evaluate=evaluate,
        decode=decode,
        rules=rules,
        probe=problem.probe,
        frame=problem.frame,
        base_problem=problem,
        expand_full=expand,
    )


def sphere_problem(dimension=5) -> Problem:
    """Unconstrained sphere on the box [-5, 5]^dimension (optimizer smoke tests)."""
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return Evaluation(objective=_row_dot(x, x),
                          violations=np.zeros(x.shape[:-1] + (0,)))

    lo = np.full(dimension, -5.0)
    hi = np.full(dimension, 5.0)
    return Problem(
        name=f"sphere-{dimension}",
        domains=(Domain("continuous", -5.0, 5.0),) * dimension,
        n_constraints=0,
        evaluate=evaluate,
        decode=lambda x: {"x": [float(v) for v in np.asarray(x, dtype=float)]},
        probe=Probe(f=lambda x: float(np.dot(x, x)), lower=lo, upper=hi),
    )
