#!/usr/bin/env python3
"""Generate the bundled frame configs (src/framefx/data/frame_*.json).

Story counts, member grouping, fabrication ties, material constants,
constraint families and section pools follow the published benchmark
descriptions; bay widths, story heights and load magnitudes are
representative reconstructions (the primary sources give them only in
figures), so every config carries ``provenance: reconstructed``.

The lateral load scale is calibrated by bisection so that a mid-catalog
uniform design sits exactly on the constraint boundary: the all-largest
design is then comfortably feasible and the all-smallest clearly not,
which keeps the optimization problems meaningful.

Run from the repository root:  python tools/make_configs.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from framefx.config import build_frame, load_frame_config
from framefx.evaluate import constraint_values
from framefx.fea import analyze

FT = 30.48  # cm


def grid(n_stories, n_lines, bay, story_h):
    """Rectangular frame grid: nodes level-major, columns then beams."""
    nodes = [[round(line * bay, 2), round(level * story_h, 2)]
             for level in range(n_stories + 1) for line in range(n_lines)]

    def node(level, line):
        return level * n_lines + line

    columns = []   # (a, b, story 1-based, line)
    for story in range(1, n_stories + 1):
        for line in range(n_lines):
            columns.append((node(story - 1, line), node(story, line), story, line))
    beams = []     # (a, b, floor 1-based, bay index)
    for floor in range(1, n_stories + 1):
        for b in range(n_lines - 1):
            beams.append((node(floor, b), node(floor, b + 1), floor, b))
    return nodes, node, columns, beams


def make_8story():
    n_stories, bay, story_h = 8, 20 * FT, 10 * FT
    nodes, node, columns, beams = grid(n_stories, 2, bay, story_h)
    # two-story fabrication bands: 4 column groups then 4 beam groups
    members = []
    for a, b, story, _ in columns:
        members.append([a, b, (story - 1) // 2])
    for a, b, floor, _ in beams:
        members.append([a, b, 4 + (floor - 1) // 2])
    groups = [{"label": f"columns-{2 * i + 1}-{2 * i + 2}", "role": "column",
               "pool": "w-all"} for i in range(4)]
    groups += [{"label": f"beams-{2 * i + 1}-{2 * i + 2}", "role": "beam",
                "pool": "w-all"} for i in range(4)]
    doc = {
        "name": "frame-8story-1bay",
        "provenance": "reconstructed",
        "material": {"elastic_modulus": 20000.0, "yield_stress": 24.82,
                     "density": 0.00785},
        "nodes": nodes,
        "members": members,
        "supports": [{"node": node(0, 0), "fix": ["ux", "uy", "rot"]},
                     {"node": node(0, 1), "fix": ["ux", "uy", "rot"]}],
        "story_levels": [round(story_h * s, 2) for s in range(1, n_stories + 1)],
        "groups": groups,
        "constraints": {"families": ["lateral_drift"],
                        "roof_drift_limit_abs": 5.08,
                        "k_mode": "fixed"},
        "functioning": [{"group_ids": [0, 1, 2, 3],
                         "heights_cm": [round(2 * story_h * i, 2) for i in range(4)]}],
        "optimization": {"population": {"none": 25, "ifx": 25, "fx": 20},
                         "max_fe": {"none": 5000, "ifx": 5000, "fx": 3000}},
        "second_order": False,
    }
    lateral = [{"node": node(level, 0), "scale": 1.0}
               for level in range(1, n_stories + 1)]
    return doc, lateral, []


def make_15story():
    n_stories, bay, story_h = 15, 28 * FT, 12 * FT
    nodes, node, columns, beams = grid(n_stories, 4, bay, story_h)
    # outer columns (lines 0,3) and inner columns (lines 1,2) in 3-story
    # bands: groups 0-4 outer, 5-9 inner; all beams share group 10
    members = []
    for a, b, story, line in columns:
        band = (story - 1) // 3
        members.append([a, b, band if line in (0, 3) else 5 + band])
    for a, b, *_ in beams:
        members.append([a, b, 10])
    groups = [{"label": f"outer-columns-{3 * i + 1}-{3 * i + 3}", "role": "column",
               "pool": "w-all"} for i in range(5)]
    groups += [{"label": f"inner-columns-{3 * i + 1}-{3 * i + 3}", "role": "column",
                "pool": "w-all"} for i in range(5)]
    groups += [{"label": "beams", "role": "beam", "pool": "w-all"}]
    doc = {
        "name": "frame-15story-3bay",
        "provenance": "reconstructed",
        "material": {"elastic_modulus": 20000.0, "yield_stress": 24.82,
                     "density": 0.00785},
        "nodes": nodes,
        "members": members,
        "supports": [{"node": node(0, line), "fix": ["ux", "uy", "rot"]}
                     for line in range(4)],
        "story_levels": [round(story_h * s, 2) for s in range(1, n_stories + 1)],
        "groups": groups,
        "constraints": {"families": ["lrfd_interaction", "lateral_drift"],
                        "roof_drift_limit_abs": 23.5,
                        "k_mode": "sway"},
        "functioning": [
            {"group_ids": [0, 1, 2, 3, 4],
             "heights_cm": [round(3 * story_h * i, 2) for i in range(5)]},
            {"group_ids": [5, 6, 7, 8, 9],
             "heights_cm": [round(3 * story_h * i, 2) for i in range(5)]},
        ],
        "optimization": {"population": {"none": 40, "ifx": 40, "fx": 25},
                         "max_fe": {"none": 10000, "ifx": 10000, "fx": 4000}},
        "second_order": False,
    }
    gravity = []
    for level in range(1, n_stories + 1):
        for line in range(4):
            g = 75.0 if line in (0, 3) else 150.0
            gravity.append({"node": node(level, line), "fy": -g})
    lateral = [{"node": node(level, 0), "scale": 1.0}
               for level in range(1, n_stories + 1)]
    return doc, lateral, gravity


def make_24story():
    n_stories, bay, story_h = 24, 28 * FT, 12 * FT
    nodes, node, columns, beams = grid(n_stories, 4, bay, story_h)
    # beams: outer bays vs inner bay, roof separate -> groups 0..3
    # columns: exterior lines (0,3) bands of 3 -> groups 4..11,
    #          interior lines (1,2) bands of 3 -> groups 12..19
    members = []
    for a, b, floor, bidx in beams:
        outer = bidx in (0, 2)
        if floor < n_stories:
            members.append([a, b, 0 if outer else 1])
        else:
            members.append([a, b, 2 if outer else 3])
    col_members = []
    for a, b, story, line in columns:
        band = (story - 1) // 3
        group = (4 + band) if line in (0, 3) else (12 + band)
        col_members.append([a, b, group])
    members = col_members + members
    groups = [
        {"label": "outer-bay-beams", "role": "beam", "pool": "w-all"},
        {"label": "inner-bay-beams", "role": "beam", "pool": "w-all"},
        {"label": "outer-roof-beams", "role": "beam", "pool": "w-all"},
        {"label": "inner-roof-beams", "role": "beam", "pool": "w-all"},
    ]
    groups += [{"label": f"exterior-columns-{3 * i + 1}-{3 * i + 3}",
                "role": "column", "pool": "w14"} for i in range(8)]
    groups += [{"label": f"interior-columns-{3 * i + 1}-{3 * i + 3}",
                "role": "column", "pool": "w14"} for i in range(8)]
    doc = {
        "name": "frame-24story-3bay",
        "provenance": "reconstructed",
        "material": {"elastic_modulus": 20500.0, "yield_stress": 23.03,
                     "density": 0.00785},
        "nodes": nodes,
        "members": members,
        "supports": [{"node": node(0, line), "fix": ["ux", "uy", "rot"]}
                     for line in range(4)],
        "story_levels": [round(story_h * s, 2) for s in range(1, n_stories + 1)],
        "groups": groups,
        "constraints": {"families": ["lrfd_interaction", "interstory_drift"],
                        "interstory_index": 1.0 / 300.0,
                        "k_mode": "sway"},
        "functioning": [
            {"group_ids": list(range(4, 12)),
             "heights_cm": [round(3 * story_h * i, 2) for i in range(8)]},
            {"group_ids": list(range(12, 20)),
             "heights_cm": [round(3 * story_h * i, 2) for i in range(8)]},
        ],
        "optimization": {"population": {"none": 60, "ifx": 60, "fx": 25},
                         "max_fe": {"none": 15000, "ifx": 15000, "fx": 5000}},
        "second_order": False,
    }
    gravity = []
    for level in range(1, n_stories + 1):
        for line in range(4):
            g = 90.0 if line in (0, 3) else 180.0
            gravity.append({"node": node(level, line), "fy": -g})
    lateral = [{"node": node(level, 0), "scale": 1.0}
               for level in range(1, n_stories + 1)]
    return doc, lateral, gravity


def max_g(doc, lateral, gravity, scale, indices_fn):
    loads = [dict(g) for g in gravity]
    loads += [{"node": ld["node"], "fx": round(scale * ld["scale"], 6)}
              for ld in lateral]
    doc = dict(doc)
    doc["loads"] = loads
    model, pools, cs, _, _ = build_frame(doc)
    assignment = tuple(pools[g][indices_fn(pools[g])] for g in range(len(pools)))
    result = analyze(model, assignment)
    return float(constraint_values(model, assignment, result, cs).max())


def _boundary_scale(doc, lateral, gravity, indices_fn):
    lo, hi = 1e-3, 1e4
    assert max_g(doc, lateral, gravity, lo, indices_fn) < 0 \
        < max_g(doc, lateral, gravity, hi, indices_fn)
    for _ in range(60):
        probe = (lo * hi) ** 0.5
        if max_g(doc, lateral, gravity, probe, indices_fn) < 0:
            lo = probe
        else:
            hi = probe
    return (lo * hi) ** 0.5


def calibrate(doc, lateral, gravity, percentile=0.5):
    """Pick the lateral load scale: a catalog design at the given percentile
    sits on the constraint boundary, but never past 90% of the load that
    would push the all-largest design out of the feasible set."""
    mid = lambda pool: int(percentile * (len(pool) - 1))
    s_mid = _boundary_scale(doc, lateral, gravity, mid)
    s_large = _boundary_scale(doc, lateral, gravity, lambda pool: len(pool) - 1)
    scale = float(f"{min(s_mid, 0.9 * s_large):.4g}")
    doc = dict(doc)
    doc["loads"] = [dict(g) for g in gravity] + \
        [{"node": ld["node"], "fx": round(scale * ld["scale"], 4)}
         for ld in lateral]
    largest = max_g(doc, [], doc["loads"], 0.0, lambda pool: len(pool) - 1)
    smallest = max_g(doc, [], doc["loads"], 0.0, lambda pool: 0)
    print(f"  lateral scale {scale} kN/floor; max g at largest sections "
          f"{largest:.3f}, at smallest {smallest:.3f}")
    assert largest < 0, "all-largest design must be feasible"
    assert smallest > 0, "all-smallest design must be infeasible"
    return doc


def main():
    out_dir = Path(__file__).resolve().parents[1] / "src" / "framefx" / "data"
    for build, pct in ((make_8story, 0.5), (make_15story, 0.5), (make_24story, 0.75)):
        doc, lateral, gravity = build()
        print(f"calibrating {doc['name']} (percentile {pct})")
        doc = calibrate(doc, lateral, gravity, percentile=pct)
        # the full load path: raises ConfigError listing every problem
        build_frame(load_frame_config(doc))
        path = out_dir / (doc["name"].replace("-", "_", 1).replace("-", "_") + ".json")
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"  wrote {path}")


if __name__ == "__main__":
    main()
