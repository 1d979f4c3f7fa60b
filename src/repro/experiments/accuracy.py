"""Figure 4: accuracy of ALPS across workloads and quantum lengths.

Protocol (Section 3.1): for each Table 2 workload and quantum length,
run until 200 cycles are logged, compute the mean RMS relative error
over the cycles, and average over 3 runs (seeds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.alps.config import AlpsConfig
from repro.experiments.common import run_for_cycles
from repro.metrics.accuracy import mean_rms_relative_error
from repro.units import ms
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.shares import ShareDistribution, workload_shares

#: Quantum lengths (ms) on Figure 4's x-axis.
FIGURE4_QUANTA_MS = (10, 15, 20, 25, 30, 35, 40)
#: Workload sizes of Table 2.
FIGURE4_SIZES = (5, 10, 20)


@dataclass(slots=True, frozen=True)
class AccuracyPoint:
    """One point of Figure 4."""

    model: ShareDistribution
    n: int
    quantum_ms: float
    mean_rms_error_pct: float
    per_seed_errors: tuple[float, ...]
    cycles: int

    @property
    def label(self) -> str:
        """Legend label as in the paper, e.g. ``Skewed20``."""
        return f"{self.model.value.capitalize()}{self.n}"


def run_accuracy_point(
    model: ShareDistribution,
    n: int,
    quantum_ms: float,
    *,
    cycles: int = 200,
    seeds: Sequence[int] = (0, 1, 2),
    warmup_cycles: int = 5,
) -> AccuracyPoint:
    """Run one (workload, quantum) cell and summarise its error."""
    shares = workload_shares(model, n)
    errors: list[float] = []
    for seed in seeds:
        cw = build_controlled_workload(
            shares, AlpsConfig(quantum_us=ms(quantum_ms)), seed=seed
        )
        run_for_cycles(cw, cycles + warmup_cycles)
        errors.append(
            mean_rms_relative_error(cw.agent.cycle_log, skip=warmup_cycles)
        )
    return AccuracyPoint(
        model=model,
        n=n,
        quantum_ms=quantum_ms,
        mean_rms_error_pct=float(np.mean(errors)),
        per_seed_errors=tuple(errors),
        cycles=cycles,
    )
