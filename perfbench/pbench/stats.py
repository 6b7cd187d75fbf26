"""Pure helpers: percentiles, span self time, and failure accounting.

Nothing here imports the program under test, so the benchmark's own
tests exercise these without building a system.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: A tail percentile is reported only with at least this many samples
#: ranked beyond it; otherwise it is too close to a single outlier.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above the ``q`` quantile."""
    # ceil(q * n) samples sit at or below the quantile; the epsilon keeps
    # 0.9 * 100 from rounding up to 91 through binary float error.
    return n - math.ceil(q * n - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    frac = pos - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def tail_percentile(values: Sequence[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> float | None:
    """``percentile(values, q)``, or None when fewer than ``min_beyond``
    samples lie beyond it."""
    if samples_beyond(len(values), q) < min_beyond:
        return None
    return percentile(values, q)


def latency_summary(values_s: Sequence[float]) -> dict:
    """p50 and p90 (ms) of a latency sample, each with its sample count.

    p90 is None when the ten-beyond rule does not hold; the count is
    always reported so a reader can tell why.
    """
    ms = [v * 1000.0 for v in values_s]
    p90 = tail_percentile(ms, 0.9)
    return {
        "n": len(ms),
        "p50_ms": statistics.median(ms) if ms else None,
        "p90_ms": p90,
        "beyond_p90": samples_beyond(len(ms), 0.9),
    }


# -- spans ---------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the enclosing span's id or -1."""

    id: int
    name: str
    start: float
    end: float
    parent: int = -1
    op: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    The reference the tracer's one-pass :meth:`Tracer.totals` is tested
    against.

    Children may overlap one another (spans from helper threads, or a
    generator suspended across its consumer's frames); covered time is
    the union of the children's intervals clipped to the parent, so
    overlapping siblings are not subtracted twice.
    """
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent in by_id:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, hi)
        result[span.id] = span.duration - covered
    return result


def self_time_by_name(spans: Iterable[Span]) -> dict[str, tuple[float, int]]:
    """``{span name: (summed self time, call count)}``."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, list] = {}
    for span in spans:
        entry = totals.setdefault(span.name, [0.0, 0])
        entry[0] += own[span.id]
        entry[1] += 1
    return {name: (t, n) for name, (t, n) in totals.items()}


# -- failure accounting --------------------------------------------------


@dataclass
class Tally:
    """Attempted vs failed ops; an op fails once however many checks
    it misses, and the first reason is kept for the report."""

    attempted: int = 0
    failures: dict[int, str] = field(default_factory=dict)

    def attempt(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, reason: str) -> None:
        self.failures.setdefault(op, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
