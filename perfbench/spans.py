"""In-memory span tracing of freqcache's public functions.

A span is recorded around every call of a wrapped function: its name,
start and end (``perf_counter_ns``), the index of the enclosing span, the
frame the benchmark was timing when it started, and optional attributes
computed from the call's arguments and result. Spans stay in memory and
are written out once, when the run ends.

A function is wrapped where its callers look it up. ``fusion`` binds
``sim_freq`` with ``from .migration import sim_freq``, so wrapping
``migration.sim_freq`` alone would never see the calls ``decide`` makes;
``wrap_everywhere`` therefore replaces the function in every loaded module
that binds the same object. A name that no longer exists is recorded as
missing instead of raising, so a refactor shows up as a missing span.
"""

import json
import sys
import time

NAME, START, END, PARENT, FRAME, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.frame = -1
        self._stack = []
        self._patched = []

    def wrapper(self, name, fn, attrs=None):
        """``fn`` wrapped to record a span; ``attrs(args, kwargs, result)``
        may return a dict stored with the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.frame, None]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                span[START] = start
                stack.pop()
            if attrs is not None:
                try:
                    span[ATTRS] = attrs(args, kwargs, result)
                except Exception:  # a changed signature leaves the span bare
                    span[ATTRS] = None
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_everywhere(self, module, attr, name, attrs=None):
        """Wrap the function ``module.attr`` in ``module`` and in every loaded
        freqcache module that binds that same function."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(name)
            return
        traced = self.wrapper(name, fn, attrs)
        owners = [module] + [
            mod for mod_name, mod in list(sys.modules.items())
            if mod_name.split(".")[0] == "freqcache" and mod is not module
            and getattr(mod, attr, None) is fn]
        for owner in owners:
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, traced)

    def restore(self):
        """Undo every wrap, newest first."""
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def record(self, name, start, end, attrs=None):
        """Add a span the caller timed itself."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.frame, attrs])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT],
                                     "frame": s[FRAME], "attrs": s[ATTRS]}))
                fh.write("\n")


def children(spans):
    """Map from span index to the indices of its direct children."""
    kids = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids.setdefault(s[PARENT], []).append(i)
    return kids


def self_time_ns(spans, index, kids):
    """Duration of a span minus the part of it its direct children cover."""
    start, end = spans[index][START], spans[index][END]
    covered = 0
    reach = start
    for lo, hi in sorted((spans[c][START], spans[c][END])
                         for c in kids.get(index, ())):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return end - start - covered
