"""Spans recorded from the benchmark's side of each diffkde call.

The tracer replaces module attributes with timing wrappers.  A function
that other modules import by name is wrapped in every namespace that holds
it (``cosine_moments`` in bandwidth, kde1d and kde2d, say), because a call
resolves the name in its caller's module.  Spans (name, start, end,
parent, operation id) stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.enabled = False
        self.observed = defaultdict(list)
        self._patched = []

    def wrap(self, modules, attr: str, name: str, observe=None, peak: bool = False):
        """Wrap ``attr`` in every module of ``modules`` that holds the same
        object as the first one.  ``observe(tracer, args, kwargs, result)``
        records counters; ``peak`` measures the call's tracemalloc peak."""
        orig = getattr(modules[0], attr)
        for mod in modules:
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, self._wrapper(orig, name, observe, peak))
                self._patched.append((mod, attr, orig))

    def _wrapper(self, orig, name, observe, peak):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if peak:
                tracemalloc.start()
            span[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
                if peak:
                    tracer.observed[name + ".peak_b"].append(
                        tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # --- summaries -------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def inclusive_s(self, name: str) -> float:
        """Wall time inside ``name``, counting nested calls of it once."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0] == name and not self._has_ancestor(i, name):
                total += s[2] - s[1]
        return total

    def self_s(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their children cover."""
        child = Counter()
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(self.spans)
                   if s[0] == name)

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


def fingerprint(array, axis) -> bytes:
    """Content key of a cosine_moments input, to count distinct inputs.

    Hashes the shape, the sum and every 61st element: enough to tell the
    binned samples of one run apart at a fraction of a full hash's cost.
    """
    a = np.asarray(array, dtype=float)
    key = repr((a.shape, axis, float(a.sum()))).encode() + a.ravel()[::61].tobytes()
    return hashlib.blake2b(key, digest_size=16).digest()
