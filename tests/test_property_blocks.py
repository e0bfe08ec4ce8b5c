"""Section-property blocks against the per-group path they replaced.

A frame design used to be a tuple of SectionShapes: the probe built a named
shape per group, evaluation rounded each index with round(), and fea read
member properties with getattr.  A design is now one (G, k) property block.
These tests check the block path against the old one bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framefx import fea
from framefx.config import load_frame_config
from framefx.evaluate import constraint_values
from framefx.problems import frame_problem
from framefx.sections import PROPERTIES, SectionPool, SectionShape, circular_properties, \
    interpolated_properties, load_bundled_pool, property_block

import fea_oracle as oracle
from fea_oracle import interpolated_shape, member_values, round_indices

POOLS = {
    "w-all": load_bundled_pool("w-all"),
    "w14": load_bundled_pool("w14"),
    "circular": SectionPool([circular_properties(r) for r in (3.0, 4.5, 8.0, 12.0)]),
}


def _stress_config():
    """The 8-story frame under every member-level constraint family."""
    doc = load_frame_config("frame-8story-1bay")
    doc["name"] = "frame-8story-stress"
    doc["constraints"] = {"families": ["stress", "lrfd_interaction", "interstory_drift"],
                          "k_mode": "fixed", "stress_allowable": 16.0}
    return doc


FRAMES = {name: frame_problem(source) for name, source in [
    ("8story", "frame-8story-1bay"), ("15story", "frame-15story-3bay"),
    ("24story", "frame-24story-3bay"), ("8story-stress", _stress_config())]}


def probe_areas(pool):
    """Every catalog area, the midpoint of each neighbouring pair, and
    points past both ends of the catalog."""
    a = pool.areas
    return np.concatenate([a, (a[:-1] + a[1:]) / 2.0,
                           [a[0] / 2.0, np.nextafter(a[0], 0.0),
                            np.nextafter(a[-1], np.inf), 2.0 * a[-1]]])


def old_scores(problem, shapes):
    """Weight and constraint values of a tuple of shapes by the oracle's
    per-design scoring (scipy's banded solver, member-by-member lengths and
    the constraint code from before designs were stacked), not by the live
    fea.analyze, constraint_values and frame_weight."""
    frame = problem.frame
    block = np.array([shape.row for shape in shapes])
    result = oracle.banded_analyze(frame.model, block)
    g = oracle.block_constraint_values(frame.model, block, result, frame.constraint_set)
    return oracle.frame_weight(frame.model, shapes), g


def old_probe(problem, areas):
    pools = problem.frame.pools
    largest = tuple(pool[len(pool) - 1] for pool in pools)
    penalty_scale = 2.0 * oracle.frame_weight(problem.frame.model, largest)
    weight, g = old_scores(problem, tuple(interpolated_shape(pool, a)
                                          for pool, a in zip(pools, areas)))
    return weight + penalty_scale * float(np.maximum(g, 0.0).sum())


class TestInterpolation:
    def test_w_all_repeats_adjacent_areas(self):
        areas = POOLS["w-all"].areas
        assert np.count_nonzero(areas[1:] == areas[:-1]) == 72

    @pytest.mark.parametrize("name", sorted(POOLS))
    def test_rows_equal_named_shapes(self, name):
        pool = POOLS[name]
        areas = probe_areas(pool)
        block = interpolated_properties(pool, areas)
        assert block.shape == (areas.size, len(PROPERTIES))
        for a, row in zip(areas, block):
            expected = list(interpolated_shape(pool, a).row)
            assert row.tolist() == expected
            assert interpolated_properties(pool, a).tolist() == expected


def interp_reference(pool, area):
    """Each property column by np.interp at the clamped area: the
    interpolation that the pool's slope table replaced."""
    areas = pool.areas
    a = np.clip(area, areas[0], areas[-1])
    return np.stack([a] + [np.interp(a, areas, column)
                           for column in pool.properties.T[1:]], axis=-1)


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(POOLS))
class TestAgainstNpInterp:
    def test_random_areas_ends_and_repeats(self, name):
        pool = POOLS[name]
        a = pool.areas
        repeated = a[1:][a[1:] == a[:-1]]
        areas = np.concatenate([
            np.random.default_rng(6).uniform(a[0] / 2.0, 2.0 * a[-1], 2000),
            a[[0, -1]], np.nextafter(a[[0, -1]], np.inf), np.nextafter(a[[0, -1]], 0.0),
            repeated, np.nextafter(repeated, np.inf), np.nextafter(repeated, 0.0)])
        assert_same_bits(interpolated_properties(pool, areas),
                         interp_reference(pool, areas))
        assert_same_bits(interpolated_properties(pool, areas.reshape(-1, 2)),
                         interp_reference(pool, areas.reshape(-1, 2)))

    @settings(max_examples=25, deadline=None)
    @given(p=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_single_areas(self, name, p, seed):
        # each row gets the bits its area gets alone, in any batch size and order
        pool = POOLS[name]
        rng = np.random.default_rng(seed)
        areas = np.where(rng.random(p) < 0.3, rng.choice(pool.areas, p),
                         rng.uniform(pool.min_area / 2.0, 2.0 * pool.max_area, p))
        order = rng.permutation(p)
        batch = interpolated_properties(pool, areas)
        assert_same_bits(interpolated_properties(pool, areas[order]), batch[order])
        for a, row in zip(areas, batch):
            assert_same_bits(interpolated_properties(pool, a), row)
            assert_same_bits(interpolated_properties(pool, float(a)), row)


def test_catalog_area_takes_its_row_where_the_slope_overflows():
    # np.interp takes the row itself at a catalog area, where slope * 0
    # would be nan
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [(1.0, 1.0), (np.nextafter(1.0, 2.0), 1e300), (2.0, 1e300)]
        pool = SectionPool([SectionShape(f"S{i}", area, 1.0, 1.0, 1.0, 1.0, 1.0, depth)
                            for i, (area, depth) in enumerate(rows)])
        assert np.isinf(pool.slopes[0, -1])
        areas = np.concatenate([pool.areas, [1.5]])
        assert_same_bits(interpolated_properties(pool, areas),
                         interp_reference(pool, areas))


class TestRounding:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 270).map(lambda i: i + 0.5),
                              st.sampled_from([-0.5, 0.5, 265.5, 266.5, -1e9, 1e9]),
                              st.floats(-5.0, 272.0)),
                    min_size=8, max_size=8))
    def test_indices_equal_round(self, x):
        problem = FRAMES["8story"]
        assert problem.decode(np.array(x))["section_indices"] \
            == round_indices(x, problem.domains)


@pytest.mark.parametrize("name", sorted(FRAMES))
class TestBlockPath:
    def test_shapes_and_block_agree(self, name):
        problem = FRAMES[name]
        model, pools = problem.frame.model, problem.frame.pools
        rng = np.random.default_rng(3)
        for _ in range(5):
            shapes = tuple(pool[int(rng.integers(len(pool)))] for pool in pools)
            block = property_block(shapes)
            for c, attr in enumerate(PROPERTIES):
                assert np.array_equal(member_values(model, shapes, attr),
                                      block[model._kernel.group][:, c])
            by_shape, by_block = fea.analyze(model, shapes), fea.analyze(model, block)
            for field in ("displacements", "member_forces", "reactions", "story_drifts"):
                assert np.array_equal(getattr(by_shape, field), getattr(by_block, field))
            assert np.array_equal(fea.constrained_stiffness(model, shapes),
                                  fea.constrained_stiffness(model, block))
            cs = problem.frame.constraint_set
            assert np.array_equal(constraint_values(model, shapes, by_shape, cs),
                                  constraint_values(model, block, by_block, cs))
            assert fea.frame_weight(model, shapes) == fea.frame_weight(model, block)

    def test_evaluate_equals_old_path(self, name):
        problem = FRAMES[name]
        upper = np.array([d.upper for d in problem.domains])
        rng = np.random.default_rng(4)
        for x in rng.uniform(-1.0, upper + 1.0, size=(6, upper.size)):
            pools = problem.frame.pools
            shapes = tuple(pools[g][i]
                           for g, i in enumerate(round_indices(x, problem.domains)))
            weight, g = old_scores(problem, shapes)
            ev = problem.evaluate(x)
            assert ev.objective == weight
            assert np.array_equal(ev.violations, g)

    def test_probe_equals_old_path(self, name):
        problem = FRAMES[name]
        probe = problem.probe
        rng = np.random.default_rng(5)
        points = [probe.lower, probe.upper, (probe.lower + probe.upper) / 2.0]
        points += list(rng.uniform(probe.lower, probe.upper, size=(4, probe.lower.size)))
        for x in points:
            assert probe.f(x) == old_probe(problem, x)
        # property rows for one area at a time, as a tuple, give the same analysis
        rows = tuple(interpolated_properties(pool, a)
                     for pool, a in zip(problem.frame.pools, points[-1]))
        shapes = tuple(interpolated_shape(pool, a)
                       for pool, a in zip(problem.frame.pools, points[-1]))
        assert np.array_equal(fea.analyze(problem.frame.model, rows).displacements,
                              fea.analyze(problem.frame.model, shapes).displacements)
