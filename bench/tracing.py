"""In-memory spans and counters for the traced benchmark run.

A span records a name, its start and end on ``time.perf_counter`` and the
span that was open when it began. Spans are taken in the benchmark's own code:
around its calls into ``hiermoment`` and, where a child layer must be seen,
around a name the package imports from another module (``patch`` swaps the
name at its import site, so the package itself is unchanged).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.maxima = Counter()
        self._open = []
        self._patched = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn, on_result=None, on_error=None):
        """``fn`` with a span around each call; ``on_result(tracer, value)``
        and ``on_error(tracer, exc)`` may record counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    value = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(self, exc)
                    raise
            if on_result is not None:
                on_result(self, value)
            return value

        return traced

    def patch(self, owner, attr, name, on_result=None, on_error=None):
        """Replace ``owner.attr`` (a module global or a classmethod) by its
        traced form until ``restore``. A missing name raises, so a renamed
        or merged stage fails the traced run instead of reading 0."""
        original = vars(owner).get(attr)
        if original is None:
            raise AttributeError(
                f"cannot trace {name}: {owner.__name__} has no {attr!r}")
        if isinstance(original, classmethod):
            replacement = classmethod(
                self.wrap(name, original.__func__, on_result, on_error))
        else:
            replacement = self.wrap(name, original, on_result, on_error)
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def count(self, name, n=1):
        self.counts[name] += n

    def record_max(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()

    def self_seconds(self):
        """Total self time per span name: each span's duration minus the
        durations of the spans opened directly inside it."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out
