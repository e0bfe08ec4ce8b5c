"""One generation per ``Problem.evaluate`` call, against one design per call
and against the per-design scoring kept in ``fea_oracle``.

Each row of a generation must get the same bits as the design evaluated
alone, whatever the generation's size and the row's position in it, and
the same bits as the per-design path the generation path replaced: the
experiment records, and perfbench's re-evaluation of each record's final
design, depend on it.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fea_oracle as oracle
from framefx import fea
from framefx.fea import StructuralInstabilityError
from framefx.problems import SteppedColumnSpec, attach_fx, frame_problem, \
    sphere_problem, stepped_column_problem
from framefx.sections import AREA, INERTIA

from test_property_blocks import _stress_config

COLUMN = SteppedColumnSpec(segment_count=12)
# frames given by config doc rather than bundled name: the stress family and
# fixed-K LRFD, which no bundled frame uses
FRAME_DOCS = {"frame-8story-stress": _stress_config()}


@functools.cache
def problem(name):
    """The problem under test and the one-design oracle for its rows."""
    kind, _, strategy = name.partition(":")
    if kind == "sphere":
        base = sphere_problem(dimension=4)
        return base, lambda x: (float(np.dot(x, x)), np.zeros(0))
    if kind == "column":
        base = stepped_column_problem(COLUMN)
        score = functools.partial(oracle.column_score, COLUMN)
    else:
        base = frame_problem(FRAME_DOCS.get(kind, kind))
        score = functools.partial(oracle.frame_score, base)
    if strategy == "fx":
        reduced = attach_fx(base)
        return reduced, lambda xr: score(oracle.fx_expand(reduced, xr))
    return base, score


def generation(prob, name, rng, p):
    """p designs drawn uniformly in the problem's box; for the ifx strategy,
    reduced designs expanded in one call, as its first generation is."""
    if name.endswith(":ifx"):
        reduced = attach_fx(prob)
        samples = rng.uniform(reduced.lower, reduced.upper, (p, reduced.dimension))
        X = reduced.expand_full(samples)
        for x, sample in zip(X, samples):
            np.testing.assert_array_equal(x, oracle.fx_expand(reduced, sample))
        return X
    return rng.uniform(prob.lower, prob.upper, (p, prob.dimension))


@pytest.mark.parametrize("name", [
    "frame-8story-1bay", "frame-8story-1bay:fx", "frame-8story-stress",
    "frame-15story-3bay", "frame-24story-3bay", "frame-24story-3bay:fx",
    "column", "column:ifx", "column:fx", "sphere",
])
@settings(max_examples=8, deadline=None)
@given(p=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_rows_match_single_designs_and_the_oracle(name, p, seed):
    prob, score = problem(name)
    rng = np.random.default_rng(seed)
    X = generation(prob, name, rng, p)
    order = rng.permutation(p)
    ev, shuffled = prob.evaluate(X), prob.evaluate(X[order])
    assert ev.objective.shape == (p,)
    assert ev.violations.shape == (p, prob.n_constraints)
    np.testing.assert_array_equal(shuffled.objective, ev.objective[order])
    np.testing.assert_array_equal(shuffled.violations, ev.violations[order])
    for x, f, g in zip(X, ev.objective, ev.violations):
        one = prob.evaluate(x)
        assert np.shape(one.objective) == () and one.objective == f
        np.testing.assert_array_equal(one.violations, g)
        f_oracle, g_oracle = score(x)
        assert f == f_oracle
        np.testing.assert_array_equal(g, g_oracle)


def _unstable(block, group, scale):
    """``block`` with one column group's area and inertia scaled down."""
    out = block.copy()
    out[group, [AREA, INERTIA]] *= scale
    return out


@settings(max_examples=25, deadline=None)
@given(p=st.integers(2, 12), data=st.data())
def test_first_unstable_design_in_order_names_its_dof(p, data):
    # zero stiffness in column group 1 or 2 leaves a different node free
    # to slide; 1e-12 of it survives factorization with a tiny pivot
    prob, _ = problem("frame-8story-1bay")
    model, pools = prob.frame.model, prob.frame.pools
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stack = np.array([[pool.properties[rng.integers(len(pool))] for pool in pools]
                      for _ in range(p)])
    rows = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3,
                              unique=True))
    for r in rows:
        stack[r] = _unstable(stack[r], data.draw(st.sampled_from([1, 2])),
                             data.draw(st.sampled_from([0.0, 1e-12])))
    first = min(rows)
    with pytest.raises(StructuralInstabilityError) as alone:
        fea.analyze(model, stack[first])
    with pytest.raises(StructuralInstabilityError) as stacked:
        fea.analyze(model, stack)
    assert (stacked.value.node, stacked.value.dof) == (alone.value.node, alone.value.dof)
    # the stable designs before it analyze as they do alone
    if first:
        fea.analyze(model, stack[:first])
