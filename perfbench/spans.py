"""In-memory span tracing through shims at cross-module call sites.

A span records its name, start and end (integer nanoseconds), the span
that caused it and the operation it belongs to.  Spans live in flat typed
arrays while the benchmark runs and are written out once, at the end.
Traced runs are single-threaded, so a span's children never overlap.

The shims replace module attributes that one detsched module looks up on
another, so the library itself is untouched; ``Tracer.restore`` puts every
original object back and reports any that did not return.
"""

import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """Span store plus the counters that are cheapest to take at a shim."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counts = Counter()
        self.palm_tx = set()
        self._stack = []
        self.op_id = -1
        self._saved = []

    def code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def begin(self, code):
        idx = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def operation(self, op_id, name, fn):
        """Run ``fn`` as operation ``op_id`` under a root span ``name``."""
        self.op_id = op_id
        idx = self.begin(self.code(name))
        try:
            return fn()
        finally:
            self.finish(idx)

    def wrap(self, module, attr, name, count=None):
        """Replace ``module.attr`` by a shim that records a span ``name``.

        ``count(args, result)`` runs inside the span, to update counters.
        """
        fn = getattr(module, attr)
        code = self.code(name)

        def shim(*args, **kwargs):
            idx = self.begin(code)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(args, out)
                return out
            finally:
                self.finish(idx)

        self._saved.append((module, attr, fn))
        setattr(module, attr, shim)

    def restore(self):
        """Put back every wrapped attribute; returns how many failed to."""
        bad = 0
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
            bad += getattr(module, attr) is not fn
        self._saved.clear()
        return bad

    def arrays(self):
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                for key in ("name", "start", "end", "parent", "op")}

    def save(self, path):
        arrs = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **arrs)

    def summary(self):
        """{span name: (calls, total ns, self ns)}; self time is a span's
        duration minus its children's."""
        a = self.arrays()
        total = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=total[child], minlength=total.size)
        self_ns = total - covered
        out = {}
        for code, name in enumerate(self.names):
            sel = a["name"] == code
            out[name] = (int(sel.sum()), float(total[sel].sum()), float(self_ns[sel].sum()))
        return out
