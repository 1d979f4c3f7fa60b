"""Figure 6: proportional redistribution while a process does I/O.

Three processes A, B, C with shares 1, 2, 3 under a 10 ms quantum.
After reaching steady state, B alternates 80 ms of computation with
240 ms of (simulated I/O) sleep.  While B is blocked, ALPS must divide
the CPU 1:3 between A and C; while B is active, 1:2:3 must hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alps.config import AlpsConfig
from repro.experiments.common import run_for_cycles
from repro.units import ms, sec
from repro.workloads.io_pattern import compute_sleep_behavior
from repro.workloads.scenarios import ControlledWorkload, build_controlled_workload
from repro.workloads.spinner import spinner_behavior


@dataclass(slots=True, frozen=True)
class IoExperimentResult:
    """Per-cycle share percentages for the three processes."""

    cycle_indices: np.ndarray
    share_pct: np.ndarray  # (cycles × 3) — columns A, B, C
    blocked_b: np.ndarray  # bool per cycle: B charged blocked quanta
    io_start_cycle: int

    def mean_shares(self, mask: np.ndarray) -> np.ndarray:
        """Mean share (%) of A, B, C over the masked cycles."""
        if not mask.any():
            return np.full(3, np.nan)
        return self.share_pct[mask].mean(axis=0)

    @property
    def active_mask(self) -> np.ndarray:
        """Cycles after I/O starts in which B was not blocked."""
        idx = self.cycle_indices >= self.io_start_cycle
        return idx & ~self.blocked_b

    @property
    def blocked_mask(self) -> np.ndarray:
        """Cycles after I/O starts in which B was charged as blocked."""
        idx = self.cycle_indices >= self.io_start_cycle
        return idx & self.blocked_b

    @property
    def steady_mask(self) -> np.ndarray:
        """Pre-I/O steady-state cycles (warm-up excluded)."""
        return (self.cycle_indices >= 10) & (
            self.cycle_indices < self.io_start_cycle - 2
        )


def run_io_experiment(
    *,
    quantum_ms: float = 10.0,
    warmup_cpu_s: float = 10.0,
    total_cycles: int = 1200,
    compute_ms: float = 80.0,
    sleep_ms: float = 240.0,
    seed: int = 0,
) -> IoExperimentResult:
    """Run the Section 3.3 I/O experiment and extract per-cycle shares.

    ``warmup_cpu_s`` is process B's initial pure-compute phase; because
    B runs at 1/3 of the CPU, I/O starts at roughly ``3 × warmup`` of
    real time (near cycle 500-600 in the paper's figure).
    """
    behaviors = [
        spinner_behavior(),
        compute_sleep_behavior(
            ms(compute_ms), ms(sleep_ms), warmup_cpu_us=sec(warmup_cpu_s)
        ),
        spinner_behavior(),
    ]
    cw: ControlledWorkload = build_controlled_workload(
        [1, 2, 3],
        AlpsConfig(quantum_us=ms(quantum_ms)),
        seed=seed,
        behaviors=behaviors,
    )
    run_for_cycles(cw, total_cycles)

    log = cw.agent.cycle_log
    n = len(log)
    share_pct = np.zeros((n, 3))
    blocked_b = np.zeros(n, dtype=bool)
    indices = np.zeros(n, dtype=int)
    for row, rec in enumerate(log):
        total = rec.total_consumed
        indices[row] = rec.index
        if total > 0:
            for col in range(3):
                share_pct[row, col] = 100.0 * rec.consumed.get(col, 0) / total
        blocked_b[row] = rec.blocked_quanta.get(1, 0) > 0

    # Locate the onset of I/O: the first cycle in which B is charged
    # blocked quanta (B's warm-up is pure compute).
    blocked_rows = np.flatnonzero(blocked_b)
    io_start = int(indices[blocked_rows[0]]) if blocked_rows.size else n
    return IoExperimentResult(
        cycle_indices=indices,
        share_pct=share_pct,
        blocked_b=blocked_b,
        io_start_cycle=io_start,
    )
