"""Bundled frames are compiled once per process and shared read-only.

Every ``frame_problem`` call on a bundled name returns a new Problem and
Probe around one compiled model, so what a caller assigns on its problem
stays there; configs given as a path or a dict are compiled on every call.
"""

import json

import numpy as np
import pytest

from framefx.config import ConfigError, load_frame_config
from framefx.harness import build_problem, default_cell_settings
from framefx.problems import frame_problem

SPEC = {"kind": "frame", "config": "frame-8story-1bay"}


def test_each_build_is_a_new_problem_around_one_model():
    a, b = build_problem(SPEC), build_problem(SPEC)
    assert a is not b and a.probe is not b.probe
    assert a.frame.model is b.frame.model
    original = b.evaluate
    a.evaluate = lambda x: None  # what test_harness and perfbench's tracer do
    assert b.evaluate is original
    assert build_problem(SPEC).evaluate is original


@pytest.mark.parametrize("name", ["frame-8story-1bay", "frame-24story-3bay"])
def test_bundled_and_uncached_doc_agree_bit_for_bit(name):
    bundled, fresh = frame_problem(name), frame_problem(load_frame_config(name))
    assert fresh.frame.model is not bundled.frame.model
    rng = np.random.default_rng(7)
    X = bundled.lower + rng.random((6, bundled.dimension)) * (bundled.upper - bundled.lower)
    got, want = bundled.evaluate(X), fresh.evaluate(X)
    np.testing.assert_array_equal(got.objective, want.objective)
    np.testing.assert_array_equal(got.violations, want.violations)
    assert bundled.decode(X[0]) == fresh.decode(X[0])
    mid = (bundled.probe.lower + bundled.probe.upper) / 2.0
    assert bundled.probe.f(mid) == fresh.probe.f(mid)


def test_a_config_path_is_reloaded_on_every_call(tmp_path):
    doc = load_frame_config("frame-8story-1bay")
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(doc))
    first = frame_problem(path)
    doc["loads"] = []
    path.write_text(json.dumps(doc))
    second = frame_problem(path)
    assert len(first.frame.model.loads) > 0 and second.frame.model.loads == ()


@pytest.mark.parametrize("source", [{"name": "broken"}, "no/such/frame.json"])
def test_a_bad_config_fails_on_every_call(source):
    for _ in range(2):
        with pytest.raises(ConfigError):
            frame_problem(source)


def test_shared_state_is_read_only():
    a, b = frame_problem("frame-8story-1bay"), frame_problem("frame-8story-1bay")
    arrays = [v for v in vars(a.frame.model._kernel).values()
              if isinstance(v, np.ndarray)]
    assert len(arrays) > 10
    for array in arrays + [a.probe.lower, a.probe.upper]:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    with pytest.raises(TypeError):
        a.frame.strategy_defaults["population"] = {}
    with pytest.raises(TypeError):
        a.frame.strategy_defaults["population"]["fx"] = 1
    assert default_cell_settings(b) == default_cell_settings(
        frame_problem(load_frame_config("frame-8story-1bay")))
