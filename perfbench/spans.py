"""In-memory spans and the arithmetic the traced run reports.

A span records one call of a wrapped function: its name, start, end, the
span that was open when it started (its parent) and the run it belongs to.
Spans stay in memory until the traced process ends and are then written out
as JSON.

Self time: a span's duration minus the part of it that its child spans
cover.  Spans marked ``inclusive`` are drill-downs into a kernel the layer
calls (polynomial evaluation, substitution, one matching count): their whole
duration is reported under their own name, and it stays in the self time of
the layer that called them, so layer self times still add up to the run.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    run_id: str
    inclusive: bool = False
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Creates wrappers that record a span around every call."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, *, inclusive: bool = False, counter=None):
        """``fn`` wrapped in a span called ``name``.

        ``counter(result, args)`` returns counts to attach to the span; it
        runs after the span has ended, so its cost is not the layer's.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, self.clock(), None, parent, self.run_id, inclusive)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if counter is not None:
                span.counts = counter(result, args)
            return result

        return traced

    def as_json(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name (see the module docstring)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.inclusive:
            continue
        parent = span.parent
        while parent is not None and spans[parent].inclusive:
            parent = spans[parent].parent
        if parent is not None:
            children[parent].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        duration = span.end - span.start
        if not span.inclusive:
            duration -= _covered(children[index], span.start, span.end)
        totals[span.name] += duration
    return dict(totals)


def call_counts(spans: list[Span]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span.name] += 1
    return dict(counts)


def attached_counts(spans: list[Span], maxed: frozenset[str]) -> dict[str, int]:
    """Counts attached by counters: summed, or the maximum for ``maxed`` keys."""
    totals: dict[str, int] = {}
    for span in spans:
        for key, value in span.counts.items():
            if key in maxed:
                totals[key] = max(totals.get(key, value), value)
            else:
                totals[key] = totals.get(key, 0) + value
    return totals


def tracing_overhead(traced_walls: list[float], untraced_walls: list[float]) -> float:
    """Median traced wall time minus median untraced wall time."""
    return statistics.median(traced_walls) - statistics.median(untraced_walls)


def load_spans(records: list[dict]) -> list[Span]:
    return [Span(**record) for record in records]
