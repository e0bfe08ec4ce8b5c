"""Frame configuration files: schema validation and model construction.

A config is a JSON document with explicit nodes/members/supports/loads,
member grouping with roles and section-pool labels, constraint settings,
optional functioning rules, and optional per-strategy optimizer defaults.
Bundled configs live in framefx/data and carry ``provenance: reconstructed``
where geometry or load magnitudes come from the benchmark literature rather
than a primary source.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from .evaluate import ConstraintSet
from .fea import FrameModel
from .fx import STRATEGIES, FunctioningRule, validate_rules
from .sections import BUNDLED_POOLS, load_pool

__all__ = [
    "ConfigError",
    "BUNDLED_CONFIGS",
    "load_frame_config",
    "build_frame",
]

BUNDLED_CONFIGS = {
    "frame-8story-1bay": "frame_8story_1bay.json",
    "frame-15story-3bay": "frame_15story_3bay.json",
    "frame-24story-3bay": "frame_24story_3bay.json",
}

_JSON_NAMES = {str: "a string", dict: "an object", list: "a list", (int, float): "a number"}


class ConfigError(ValueError):
    """A config or option failed validation; ``problems`` lists one
    diagnostic per line, a frame config's with its field path."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n  ".join(self.problems))


def _is_number(value) -> bool:
    """A finite JSON number (booleans are not numbers here)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _check(doc):
    """What only the JSON shows: its shape, types and finite numbers, pool
    labels and the optimizer block.  The frame model, the constraint set,
    each functioning rule and ``fx.validate_rules`` check the rest when
    ``build_frame`` constructs them."""
    errs = []

    def need(key, types, where=doc, prefix=""):
        if key not in where:
            errs.append(f"{prefix}{key}: missing")
            return None
        val = where[key]
        if not isinstance(val, types):
            errs.append(f"{prefix}{key}: expected {_JSON_NAMES[types]}, got {val!r}")
            return None
        return val

    if not isinstance(doc, dict):
        return ["config root must be a JSON object"]

    need("name", str)
    mat = need("material", dict)
    if mat is not None:
        for key in ("elastic_modulus", "yield_stress", "density"):
            v = need(key, (int, float), mat, "material.")
            if v is not None and not (_is_number(v) and v > 0):
                errs.append(f"material.{key}: expected a positive number, got {v!r}")

    for i, nd in enumerate(need("nodes", list) or ()):
        if not (isinstance(nd, list) and len(nd) == 2
                and all(_is_number(c) for c in nd)):
            errs.append(f"nodes[{i}]: expected [x, y]")

    groups = need("groups", list) or []
    for i, g in enumerate(groups):
        if not isinstance(g, dict):
            errs.append(f"groups[{i}]: expected object")
            continue
        pool = g.get("pool")
        if not isinstance(pool, str):
            errs.append(f"groups[{i}].pool: expected pool label string")
        elif pool not in BUNDLED_POOLS and not Path(pool).suffix == ".csv":
            errs.append(f"groups[{i}].pool: unknown pool {pool!r} "
                        f"(bundled: {sorted(BUNDLED_POOLS)}, or a .csv path)")
        k = g.get("k_factor", 1.0)
        if not _is_number(k):
            errs.append(f"groups[{i}].k_factor: expected a number, got {k!r}")

    for i, m in enumerate(need("members", list) or ()):
        if not (isinstance(m, list) and len(m) == 3
                and all(isinstance(c, int) for c in m)):
            errs.append(f"members[{i}]: expected [node_a, node_b, group_id]")

    for i, s in enumerate(need("supports", list) or ()):
        if not (isinstance(s, dict) and isinstance(s.get("node"), int)
                and isinstance(s.get("fix"), list)):
            errs.append(f"supports[{i}]: expected {{node, fix}}")

    for i, ld in enumerate(need("loads", list) or ()):
        if not (isinstance(ld, dict) and isinstance(ld.get("node"), int)):
            errs.append(f"loads[{i}]: expected {{node, fx, fy, m}}")
            continue
        for key in ("fx", "fy", "m"):
            if key in ld and not _is_number(ld[key]):
                errs.append(f"loads[{i}].{key}: expected a number, got {ld[key]!r}")

    errs += [f"story_levels[{j}]: expected a number, got {level!r}"
             for j, level in enumerate(need("story_levels", list) or ())
             if not _is_number(level)]

    cons = need("constraints", dict)
    if cons is not None:
        fams = cons.get("families")
        if not (isinstance(fams, list) and all(isinstance(f, str) for f in fams)):
            errs.append("constraints.families: expected a list of family names")
        for key in ("stress_allowable", "drift_index", "interstory_index",
                    "roof_drift_limit_abs"):
            if key in cons and not _is_number(cons[key]):
                errs.append(f"constraints.{key}: expected a number, got {cons[key]!r}")

    rules = doc.get("functioning", [])
    if not isinstance(rules, list):
        errs.append("functioning: expected list")
        rules = []
    for i, rule in enumerate(rules):
        if not isinstance(rule, dict):
            errs.append(f"functioning[{i}]: expected object")
            continue
        gids = rule.get("group_ids")
        hts = rule.get("heights_cm")
        if not (isinstance(hts, list) and all(_is_number(h) for h in hts)):
            errs.append(f"functioning[{i}].heights_cm: expected a list of numbers")
        if not (isinstance(gids, list) and all(isinstance(g, int) for g in gids)):
            errs.append(f"functioning[{i}].group_ids: expected list of group ids")

    opt = doc.get("optimization")
    if opt is not None:
        if not isinstance(opt, dict):
            errs.append("optimization: expected object")
        else:
            for key in ("population", "max_fe"):
                block = opt.get(key)
                if block is not None and (
                        not isinstance(block, dict)
                        or set(block) - set(STRATEGIES)
                        or any(not isinstance(v, int) or v <= 0 for v in block.values())):
                    errs.append(f"optimization.{key}: expected positive ints keyed "
                                f"by {STRATEGIES}")

    if doc.get("second_order", False):
        errs.append("second_order: only first-order analysis is available "
                    "(flag reserved, must be false)")
    return errs


def load_frame_config(source) -> dict:
    """Load a config from a path, bundled name, or dict and check its JSON;
    ``build_frame`` checks the rest."""
    if isinstance(source, dict):
        doc = source
    else:
        name = str(source)
        if name in BUNDLED_CONFIGS:
            ref = resources.files("framefx.data").joinpath(BUNDLED_CONFIGS[name])
            doc = json.loads(ref.read_text(encoding="utf-8"))
        else:
            path = Path(name)
            if not path.exists():
                raise ConfigError([f"config file not found: {path}"])
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ConfigError([f"not valid JSON: {exc}"]) from None
    errs = _check(doc)
    if errs:
        raise ConfigError(errs)
    return doc


def build_frame(doc):
    """Turn a loaded config into (FrameModel, per-group pools, ConstraintSet,
    functioning rules, strategy defaults); raises ConfigError listing what
    the model, the constraint set, each functioning rule and, once every
    rule is built, ``fx.validate_rules`` on the groups' pools reject."""
    mat = doc["material"]
    groups = doc["groups"]
    pool_cache = {}
    pools = []
    for g in groups:
        label = g["pool"]
        if label not in pool_cache:
            pool_cache[label] = load_pool(label)
        pools.append(pool_cache[label])

    errs = []

    def construct(prefix, build, **fields):
        try:
            return build(**fields)
        except ValueError as exc:
            errs.extend(prefix + line for line in str(exc).splitlines())

    model = construct(
        "", FrameModel,
        nodes=tuple((float(x), float(y)) for x, y in doc["nodes"]),
        members=tuple((a, b, g) for a, b, g in doc["members"]),
        supports=tuple((s["node"], tuple(s["fix"])) for s in doc["supports"]),
        loads=tuple((ld["node"], float(ld.get("fx", 0.0)), float(ld.get("fy", 0.0)),
                     float(ld.get("m", 0.0))) for ld in doc["loads"]),
        group_roles=tuple(g.get("role") for g in groups),
        story_levels=tuple(float(v) for v in doc["story_levels"]),
        elastic_modulus=float(mat["elastic_modulus"]),
        yield_stress=float(mat["yield_stress"]),
        density=float(mat["density"]),
        group_k_factors=tuple(float(g.get("k_factor", 1.0)) for g in groups),
        name=doc["name"],
    )

    cons = doc["constraints"]
    cs = construct(
        "constraints: ", ConstraintSet,
        families=frozenset(cons["families"]),
        stress_allowable=cons.get("stress_allowable"),
        drift_index_R=cons.get("drift_index"),
        interstory_index_RI=float(cons.get("interstory_index", 1.0 / 300.0)),
        roof_drift_limit_abs=cons.get("roof_drift_limit_abs"),
        k_mode=cons.get("k_mode", "fixed"),
    )

    rules = tuple(
        construct(f"functioning[{i}]: ", FunctioningRule,
                  replaced_variable_ids=tuple(r["group_ids"]),
                  heights=tuple(r["heights_cm"]))
        for i, r in enumerate(doc.get("functioning", []))
    )
    if None not in rules:  # how the rules bind to the groups' pools
        construct("", validate_rules, rules=rules, domains=pools)
    if errs:
        raise ConfigError(errs)

    opt = doc.get("optimization", {})
    # read-only at both levels, as every problem of a bundled frame shares them
    defaults = MappingProxyType({key: MappingProxyType(dict(opt.get(key, {})))
                                 for key in ("population", "max_fe")})
    return model, pools, cs, rules, defaults
