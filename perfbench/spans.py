"""In-memory span recorder for the traced run.

A span is a name, a parent, the operation it belongs to, a start, a
duration and counters.  Spans are recorded from the benchmark's side of
each layer boundary (around calls into the layer's public functions);
spans derived from a layer's own timers (``JoinStatistics`` seconds)
are added as children laid end to end from their parent's start, since
the counters give durations but not positions.  Spans stay in memory
until :meth:`Tracer.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

__all__ = ["Span", "Tracer", "self_time", "covered"]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    duration: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in clipped:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children) -> float:
    """The span's duration minus the part of it its children cover."""
    return span.duration - covered(
        span.start, span.end, [(c.start, c.end) for c in children]
    )


class Tracer:
    """Records spans; ``enabled=False`` keeps only the timing it returns."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._children: dict[int, list[Span]] = defaultdict(list)
        self._stack: list[Span] = []
        self._next_op = 0

    def _keep(self, span: Span) -> None:
        if self.enabled:
            self.spans.append(span)
            if span.parent is not None:
                self._children[span.parent].append(span)

    def new_op(self) -> int:
        """A fresh operation id shared by the spans of one operation."""
        self._next_op += 1
        return self._next_op

    @contextlib.contextmanager
    def span(self, name: str, op: int = 0):
        """Time the enclosed block as one span; yields the span.

        With tracing off the span is still timed (callers read its
        duration) but nothing is kept.
        """
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, op, time.perf_counter())
        self._keep(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.duration = time.perf_counter() - span.start
            self._stack.pop()

    def derived(self, parent: Span, parts) -> None:
        """Children of ``parent`` from a layer's own timers.

        ``parts`` is a sequence of ``(name, seconds)``; the children are
        laid end to end from the parent's start, clamped to its end.
        """
        cursor = parent.start
        for name, seconds in parts:
            seconds = max(0.0, min(float(seconds), parent.end - cursor))
            self._keep(Span(len(self.spans), name, parent.id, parent.op, cursor, seconds))
            cursor += seconds

    def self_time(self, span: Span) -> float:
        return self_time(span, self._children[span.id])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
