"""Span tracer that wraps framefx's public functions from the outside.

Nothing in ``src/`` knows about it: ``instrument`` swaps module and class
attributes for timing wrappers with ``unittest.mock.patch.object`` and
puts the originals back when its context exits, so untraced work in the
same process runs the unwrapped code.

Each wrapped call records one span: a name id, a start and an end time, and
the index of the span that was open when it began (-1 at the root).  Spans
are kept in flat arrays while the run lasts and written out once, at exit.
A span's self time is its duration minus the durations of its direct
children; the wrappers nest strictly, so that is the part of the interval no
child covers.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from unittest import mock

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.raised.append(0)
        self._stack.append(idx)
        return idx

    def wrap(self, name, fn, flag=()):
        """Return ``fn`` recording a span per call; calls that raise one of
        the ``flag`` exception types are marked in ``raised``."""
        nid = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except flag:
                self.raised[idx] = 1
                raise
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(self._id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    def instrument(self, patches):
        """Context that installs ``patches``: (owner, attribute, span name[,
        flagged exceptions]) tuples, or (owner, attribute, factory) where the
        factory maps the original callable to its replacement."""
        stack = contextlib.ExitStack()
        for owner, attr, how, *flag in patches:
            original = getattr(owner, attr)
            wrapper = how(original) if callable(how) else self.wrap(how, original, *flag)
            stack.enter_context(mock.patch.object(owner, attr, wrapper))
        return stack

    def arrays(self):
        """Spans as numpy arrays: name id, parent, start, end, raised, self time."""
        nid = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        raised = np.frombuffer(self.raised, dtype=np.int8).copy()
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=dur.size)
        return nid, parent, start, end, raised, dur - children

    def write(self, path):
        nid, parent, start, end, raised, self_time = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=parent,
                 start=start, end=end, raised=raised, self_time=self_time)
