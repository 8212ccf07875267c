"""Spans and counters recorded around calls into the library.

The benchmark's own code opens a span at each layer boundary; nothing
inside ruledpoly is instrumented. Spans are kept in memory as
[name, start, end, parent index, job id] and written out once, when
the run ends. The untraced run uses NullTracer, whose span is a shared
no-op context, so the timed code path is the same in both modes.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict


class NullTracer:
    on = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: int = 1) -> None:
        pass


class Tracer:
    on = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span minus its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for rec, t in zip(self.spans, own):
            totals[rec[0]] += t
        return dict(totals)
