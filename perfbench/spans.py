"""Span tracing for the traced benchmark run.

Each traced function is replaced, at the module attribute its caller looks it
up under, by a wrapper that records a span: name, start, end, the enclosing
span, the work its arguments describe and, for memory-traced functions, the
``tracemalloc`` peak inside the call.  Spans stay in memory; the per-layer
metrics are computed from them when the round ends.  Nothing under ``src/``
changes, and the wrappers are removed again after each traced round.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass

MB = 1e6


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int         # index of the enclosing span, -1 at top level
    work: float         # work units read from the call's arguments
    peak_bytes: int     # tracemalloc peak inside the call, -1 if not traced

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, work=None,
             peak: bool = False):
        """Replace ``owner.attr`` by a span-recording wrapper named ``name``.

        ``work(*args, **kwargs)`` returns the work units of one call;
        ``peak`` turns on tracemalloc for the call's duration (only for the
        outermost such call, so nested peaks are not double counted).
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        work(*args, **kwargs) if work else 0.0, -1)
            stack.append(len(spans))
            spans.append(span)
            measure = peak and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if measure:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------

    def _named(self, name):
        return [s for s in self.spans if s.name == name]

    def seconds(self, *names) -> float:
        return sum(s.seconds for n in names for s in self._named(n))

    def calls(self, name) -> int:
        return len(self._named(name))

    def work(self, *names) -> float:
        return sum(s.work for n in names for s in self._named(n))

    def rate(self, *names, scale: float = 1.0) -> float:
        """Work units per second over the named spans (0 when absent)."""
        sec = self.seconds(*names)
        return self.work(*names) / scale / sec if sec > 0 else 0.0

    def self_seconds(self, name) -> float:
        """Span time of ``name`` minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        return sum(s.seconds - child[i] for i, s in enumerate(self.spans)
                   if s.name == name)

    def peak_mb(self, name) -> float:
        return max((s.peak_bytes for s in self._named(name)), default=0) / MB
