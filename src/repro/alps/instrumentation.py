"""Per-cycle instrumentation of an ALPS scheduler.

The paper evaluates accuracy from "a log of the CPU time consumed by
each process in every cycle" (Section 3.1).  :class:`CycleLog` is that
log; the metrics in :mod:`repro.metrics.accuracy` consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping

if TYPE_CHECKING:
    import numpy as np


@dataclass(slots=True, frozen=True)
class CycleRecord:
    """One completed ALPS cycle.

    Attributes:
        index: cycle number (0-based).
        end_time: virtual time (µs) at which the completing quantum's
            bookkeeping ran.
        consumed: CPU time (µs) each subject consumed during the cycle,
            keyed by subject id.
        blocked_quanta: quanta charged per subject for being blocked.
        shares: share of each subject during the cycle.
        quantum_us: ALPS quantum length during the cycle.
    """

    index: int
    end_time: int
    consumed: Mapping[int, int]
    blocked_quanta: Mapping[int, int]
    shares: Mapping[int, int]
    quantum_us: int

    @property
    def total_consumed(self) -> int:
        """Total CPU (µs) consumed by all subjects in the cycle."""
        return sum(self.consumed.values())


@dataclass(slots=True)
class CycleLog:
    """Append-only log of :class:`CycleRecord` entries."""

    records: list[CycleRecord] = field(default_factory=list)

    def append(self, record: CycleRecord) -> None:
        """Add a completed cycle."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[CycleRecord]:
        return iter(self.records)

    def __getitem__(self, idx: int) -> CycleRecord:
        return self.records[idx]

    def consumption_matrix(self, subject_ids: list[int]) -> np.ndarray:
        """(cycles × subjects) array of per-cycle CPU consumption (µs)."""
        import numpy as np

        out = np.zeros((len(self.records), len(subject_ids)), dtype=np.int64)
        for row, rec in enumerate(self.records):
            for col, sid in enumerate(subject_ids):
                out[row, col] = rec.consumed.get(sid, 0)
        return out

    def tail(self, n: int) -> "CycleLog":
        """A view-like log holding only the last ``n`` cycles."""
        return CycleLog(records=self.records[-n:])

    def skip(self, n: int) -> "CycleLog":
        """A log without the first ``n`` (warm-up) cycles."""
        return CycleLog(records=self.records[n:])
