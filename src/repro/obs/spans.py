"""Lightweight span tracing for the agent's hot path.

A *span* is a named interval with a duration.  The ALPS agent records
one virtual-time span per Table 1 primitive it pays for — receiving the
quantum timer (``timer_event``), reading subject progress
(``measure``), sending eligibility signals (``signal``) — so a cost
breakdown in the style of the paper's Table 1 / Figure 5 falls straight
out of the recorder instead of requiring bespoke timers in each
experiment.

Virtual-duration spans (:meth:`SpanRecorder.record`) are
seed-deterministic.  The recorder keeps recent spans as plain
``(name, start_us, duration_us)`` records and builds :class:`Span`
objects only for :meth:`SpanRecorder.recent`.  Wall-clock spans
(:meth:`SpanRecorder.measure`) exist for host-side drivers and tooling;
they never feed back into the simulation, so they cannot perturb the
schedule.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import MetricsRegistry


@dataclass(slots=True, frozen=True)
class Span:
    """One recorded interval."""

    name: str
    start_us: int
    duration_us: float


@dataclass(slots=True, frozen=True)
class SpanStats:
    """Aggregate view of one span name."""

    name: str
    count: int
    total_us: float
    min_us: float
    max_us: float

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0


class SpanRecorder:
    """Aggregates spans by name; keeps the most recent ones for tailing."""

    __slots__ = ("_agg", "_recent", "recorded")

    def __init__(self, keep_recent: int = 1024) -> None:
        #: name -> [count, total, min, max]
        self._agg: dict[str, list[float]] = {}
        #: ``(name, start_us, duration_us)`` records, oldest first.
        self._recent: deque[tuple[str, int, float]] = deque(maxlen=keep_recent)
        self.recorded = 0

    def record(
        self, name: str, duration_us: float, *, start_us: int = 0
    ) -> None:
        """Record one span with an explicit (virtual) duration."""
        self.recorded += 1
        self._recent.append((name, start_us, duration_us))
        agg = self._agg.get(name)
        if agg is None:
            self._agg[name] = [1, duration_us, duration_us, duration_us]
            return
        agg[0] += 1
        agg[1] += duration_us
        if duration_us < agg[2]:
            agg[2] = duration_us
        if duration_us > agg[3]:
            agg[3] = duration_us

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Record the enclosed block's *wall* time as a span (µs)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, (time.perf_counter() - start) * 1e6)

    # -- views -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._agg)

    def recent(self, n: int = 20) -> list[Span]:
        """The last ``n`` recorded spans, oldest first (none for
        ``n <= 0``, as :meth:`~repro.obs.events.EventLog.tail`)."""
        if n <= 0:
            return []
        items = self._recent
        if n < len(items):
            items = list(items)[-n:]
        return [Span(*item) for item in items]

    def stats(self, name: str) -> Optional[SpanStats]:
        """Aggregate for one span name, or None if never recorded."""
        agg = self._agg.get(name)
        if agg is None:
            return None
        return SpanStats(name, int(agg[0]), agg[1], agg[2], agg[3])

    def breakdown(self) -> list[SpanStats]:
        """Per-name aggregates, largest total first (Table 1 style)."""
        rows = [
            SpanStats(name, int(a[0]), a[1], a[2], a[3])
            for name, a in self._agg.items()
        ]
        rows.sort(key=lambda s: (-s.total_us, s.name))
        return rows

    def format_breakdown(self) -> str:
        """Aligned text table of the breakdown (µs)."""
        rows = self.breakdown()
        if not rows:
            return "(no spans recorded)"
        grand = sum(r.total_us for r in rows) or 1.0
        width = max(len(r.name) for r in rows)
        lines = [
            f"{'span'.ljust(width)}  {'count':>8}  {'total µs':>12}  "
            f"{'mean µs':>10}  {'share':>6}"
        ]
        for r in rows:
            lines.append(
                f"{r.name.ljust(width)}  {r.count:>8}  {r.total_us:>12,.1f}  "
                f"{r.mean_us:>10,.2f}  {r.total_us / grand:>6.1%}"
            )
        return "\n".join(lines)

    def to_registry(self, registry: "MetricsRegistry") -> None:
        """Load the aggregates as ``span_*`` metrics.

        Emits ``span_count``/``span_total_us`` counters and a
        ``span_mean_us`` gauge per span name (labelled ``span=<name>``),
        so exported snapshots carry the cost breakdown.
        """
        for row in self.breakdown():
            registry.counter("span_count", span=row.name).inc(row.count)
            registry.counter("span_total_us", span=row.name).inc(row.total_us)
            registry.gauge("span_mean_us", span=row.name).set(row.mean_us)

    def clear(self) -> None:
        """Drop all aggregates and recent spans."""
        self._agg.clear()
        self._recent.clear()
