"""Layer boundaries of the traced run and the per-layer metrics they give.

Each patch names a public framefx function and the span it records.  A
function is patched where its callers look it up: ``problems`` reaches
``constraint_values`` and ``interpolated_properties`` through its own
namespace, ``optim`` reaches ``deb_compare`` through its own, and so on.
"""

from __future__ import annotations

import statistics

import numpy as np

from framefx import evaluate, fea, fx, grouping, harness, optim, problems

# name, unit, better; every traced run reports each of them (0 when the
# workload never reaches the layer)
PER_LAYER = [
    ("fea.analyze.calls", "count", "lower"),
    ("fea.analyze.us_p50", "us", "lower"),
    ("fea.analyze.us_p90", "us", "lower"),
    ("fea.analyze.share", "fraction", "lower"),
    ("fea.frame_weight.us_p50", "us", "lower"),
    ("fea.instability.count", "count", "lower"),
    ("evaluate.constraints.us_p50", "us", "lower"),
    ("evaluate.constraints.share", "fraction", "lower"),
    ("evaluate.normalize.per_fe", "calls/FE", "lower"),
    ("evaluate.normalize.share", "fraction", "lower"),
    ("evaluate.deb_compare.per_fe", "calls/FE", "lower"),
    ("evaluate.deb_compare.share", "fraction", "lower"),
    ("evaluate.merge.calls", "count", "lower"),
    ("problems.evaluate.calls", "count", "lower"),
    ("problems.evaluate.self_us", "us", "lower"),
    ("problems.build.ms", "ms", "lower"),
    ("fx.expand.calls", "count", "lower"),
    ("fx.expand.us_p50", "us", "lower"),
    ("sections.nearest_area.calls", "count", "lower"),
    ("sections.interp.calls", "count", "lower"),
    ("sections.interp.us_p50", "us", "lower"),
    ("sections.interp.share", "fraction", "lower"),
    ("optim.self_us_per_fe", "us/FE", "lower"),
    ("optim.feasible_frac", "fraction", "higher"),
    ("optim.weight_median_kg", "kg", "lower"),
    ("harness.self_ms", "ms", "lower"),
    ("grouping.points", "count", "lower"),
    ("grouping.self_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def module_patches(tracer):
    """Patches for ``tracer.instrument`` around framefx's own modules."""

    def run_optimizer(original):
        # the optimizer's problem is rebuilt per trial, so its evaluate is
        # wrapped on the way in; for fx cells that is the reduced problem
        def run(problem, *args, **kwargs):
            problem.evaluate = tracer.wrap("problems.evaluate", problem.evaluate)
            return original(problem, *args, **kwargs)
        return tracer.wrap("optim.run", run)

    return [
        (harness, "run_plan", "harness.run_plan"),
        (harness, "run_trial", "harness.run_trial"),
        (harness, "build_problem", "problems.build"),
        (harness, "attach_fx", "problems.attach_fx"),
        (harness, "run_optimizer", run_optimizer),
        (problems, "expand_discrete", "fx.expand"),
        (problems, "expand_continuous", "fx.expand"),
        (problems, "constraint_values", "evaluate.constraints"),
        (problems, "interpolated_properties", "sections.interp"),
        (fea, "analyze", "fea.analyze", fea.StructuralInstabilityError),
        (fea, "frame_weight", "fea.frame_weight"),
        (evaluate.GMaxTracker, "normalize", "evaluate.normalize"),
        (evaluate.GMaxTracker, "merge", "evaluate.merge"),
        (optim, "deb_compare", "evaluate.deb_compare"),
        (fx, "pool_index_of_nearest_area", "sections.nearest_area"),
        (grouping, "interaction_matrix", "grouping.interaction_matrix"),
    ]


def workload_patches(workload):
    """The interaction probe is a closure the workload holds, not a module
    attribute, so it is wrapped on the workload."""
    if hasattr(workload, "probe_f"):
        return [(workload, "probe_f", "problems.probe")]
    return []


def per_layer_metrics(tracer, fe_per_unit, plain_walls, traced_walls, outcome):
    """Every PER_LAYER metric from the traced units' spans.

    Counts are per unit, shares are of the traced units' wall time, and
    ``problems.build.ms`` also counts the builds made during set-up.
    """
    nid, _, start, end, raised, self_time = tracer.arrays()
    dur = end - start
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return nid == ids.get(name, -1)

    unit = mask("unit")
    n_units = int(unit.sum())
    wall = float(dur[unit].sum())
    in_units = start >= start[unit].min()
    fe = fe_per_unit * n_units

    def spans(name):
        return dur[mask(name) & in_units]

    def per_unit(name):
        return spans(name).size / n_units

    def us(name, q):
        d = spans(name)
        return float(np.percentile(d, q)) * 1e6 if d.size else 0.0

    def share(name):
        return float(spans(name).sum()) / wall

    def per_fe(name):
        return spans(name).size / fe

    def total(name, where=True):
        return float(dur[mask(name) & where].sum())

    builds = int(mask("problems.build").sum())
    build_s = total("problems.build") + total("problems.attach_fx")
    trial_s = total("harness.run_trial", in_units)
    optim_s = (trial_s - total("problems.build", in_units)
               - total("problems.attach_fx", in_units)
               - total("problems.evaluate", in_units))
    evaluate_self = self_time[mask("problems.evaluate") & in_units]
    grouping_self = self_time[mask("grouping.interaction_matrix") & in_units]
    feasible_frac, weight = outcome
    return {
        "fea.analyze.calls": per_unit("fea.analyze"),
        "fea.analyze.us_p50": us("fea.analyze", 50),
        "fea.analyze.us_p90": us("fea.analyze", 90),
        "fea.analyze.share": share("fea.analyze"),
        "fea.frame_weight.us_p50": us("fea.frame_weight", 50),
        "fea.instability.count": int(raised[mask("fea.analyze") & in_units].sum())
        / n_units,
        "evaluate.constraints.us_p50": us("evaluate.constraints", 50),
        "evaluate.constraints.share": share("evaluate.constraints"),
        "evaluate.normalize.per_fe": per_fe("evaluate.normalize"),
        "evaluate.normalize.share": share("evaluate.normalize"),
        "evaluate.deb_compare.per_fe": per_fe("evaluate.deb_compare"),
        "evaluate.deb_compare.share": share("evaluate.deb_compare"),
        "evaluate.merge.calls": per_unit("evaluate.merge"),
        "problems.evaluate.calls": per_unit("problems.evaluate"),
        "problems.evaluate.self_us": float(np.median(evaluate_self)) * 1e6
        if evaluate_self.size else 0.0,
        "problems.build.ms": build_s / builds * 1e3 if builds else 0.0,
        "fx.expand.calls": per_unit("fx.expand"),
        "fx.expand.us_p50": us("fx.expand", 50),
        "sections.nearest_area.calls": per_unit("sections.nearest_area"),
        "sections.interp.calls": per_unit("sections.interp"),
        "sections.interp.us_p50": us("sections.interp", 50),
        "sections.interp.share": share("sections.interp"),
        "optim.self_us_per_fe": optim_s / fe * 1e6 if trial_s else 0.0,
        "optim.feasible_frac": feasible_frac,
        "optim.weight_median_kg": weight,
        "harness.self_ms": (total("harness.run_plan", in_units) - trial_s)
        / n_units * 1e3,
        "grouping.points": per_unit("problems.probe"),
        "grouping.self_ms": float(grouping_self.sum()) / n_units * 1e3,
        "trace.overhead_s": statistics.median(traced_walls)
        - statistics.median(plain_walls),
    }
