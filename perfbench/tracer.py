"""Span tracer that wraps functions where the modules that call them look them up.

A target is `(module, attribute, span name)`.  Installing the tracer replaces
`module.attribute` with a wrapper that records one span per call:
`(name, start, end, parent, n)`, where `parent` is the index of the span open
when the call began (-1 at top level) and `n` is a size taken from the return
value (0 when the target has no size function).  Spans stay in memory until
`write` dumps them after the run.

A target whose module or attribute no longer exists is reported in `absent`
and skipped, so the tracer keeps working when the program renames or removes
a function.  Timed runs never construct a tracer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)  # [(module, attribute, name, size_fn or None)]
        self.spans = []
        self.absent = []
        self._stack = []
        self._saved = []

    def install(self):
        for module_name, attr, name, size in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, size))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name, size):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = t0
                stack.pop()
            if size is not None:
                span[4] = size(result)
            return result

        return wrapper

    def write(self, path):
        """Spans as JSON lines: name, start and end in seconds, parent index, size."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per span name: calls, total duration, self time, summed size, durations.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, because calls nest.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _n in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for idx, (name, start, end, _parent, n) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "size": 0, "durations": []})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child_time[idx]
        agg["size"] += n
        agg["durations"].append(end - start)
    return out
