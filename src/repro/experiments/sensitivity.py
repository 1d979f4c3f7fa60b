"""Sensitivity of the breakdown threshold to ALPS's operation costs.

Section 4.2's model says ALPS breaks down where its overhead meets its
fair share: ``U_Q(N*) = 100/(N*+1)``.  Overhead is linear in the
Table 1 operation costs, so scaling the cost model by k should move the
threshold to roughly where ``k·U_Q(N) = 100/(N+1)``.  This experiment
scales the cost model and checks that the *measured* knee follows the
*predicted* one — validating that the analytic model, not just the
numbers, was reproduced.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.alps.config import AlpsConfig
from repro.alps.costs import CostModel
from repro.experiments.common import run_for_cycles
from repro.metrics.accuracy import mean_rms_relative_error
from repro.metrics.breakdown import predicted_threshold
from repro.metrics.overhead import fit_overhead_line
from repro.sweep.cache import SweepCache
from repro.sweep.scheduler import SweepCell, SweepSpec, run_sweep
from repro.units import SEC, ms
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.shares import equal_shares

#: Sweep-cache experiment id of one cost-sensitivity cell.
SENSITIVITY_EXPERIMENT = "sec4.sensitivity"


def scaled_costs(factor: float) -> CostModel:
    """The Table 1 cost model with every operation scaled by ``factor``."""
    base = CostModel()
    return dataclasses.replace(
        base,
        timer_event_us=base.timer_event_us * factor,
        measure_fixed_us=base.measure_fixed_us * factor,
        measure_per_proc_us=base.measure_per_proc_us * factor,
        signal_us=base.signal_us * factor,
    )


@dataclass(slots=True, frozen=True)
class SensitivityPoint:
    """Threshold data for one cost-scale factor."""

    cost_factor: float
    fit_slope: float
    fit_intercept: float
    predicted_n: float
    observed_n: int | None
    points: tuple[tuple[int, float, float], ...]  # (N, overhead%, error%)


def run_sensitivity_point(
    factor: float,
    *,
    quantum_ms: float = 10.0,
    sizes: Sequence[int] = (5, 10, 15, 20, 30, 40, 60),
    cycles: int = 20,
    seed: int = 0,
    error_knee_pct: float = 15.0,
    max_wall_s: float = 120.0,
) -> SensitivityPoint:
    """Sweep N at one cost scale; fit the linear region; locate knees."""
    costs = scaled_costs(factor)
    rows: list[tuple[int, float, float]] = []
    for n in sizes:
        cw = build_controlled_workload(
            equal_shares(n, 5),
            AlpsConfig(quantum_us=ms(quantum_ms), costs=costs),
            seed=seed,
        )
        # The sweep intentionally crosses the breakdown knee, where runs
        # truncate at the wall bound; the knee detection below consumes
        # the partial logs.
        run_for_cycles(
            cw, cycles, max_sim_us=int(max_wall_s * SEC), on_incomplete="ignore"
        )
        overhead = 100.0 * cw.kernel.getrusage(cw.alps_proc.pid) / cw.kernel.now
        err = mean_rms_relative_error(cw.agent.cycle_log, skip=3)
        rows.append((n, overhead, err))
    linear = [
        (n, ov) for n, ov, _e in rows if ov < 0.6 * 100.0 / (n + 1)
    ] or [(rows[0][0], rows[0][1]), (rows[1][0], rows[1][1])]
    fit = fit_overhead_line([n for n, _ in linear], [ov for _, ov in linear])
    predicted = predicted_threshold(fit.slope, max(fit.intercept, 0.0))
    observed = next((n for n, _ov, e in rows if e > error_knee_pct), None)
    return SensitivityPoint(
        cost_factor=factor,
        fit_slope=fit.slope,
        fit_intercept=fit.intercept,
        predicted_n=predicted,
        observed_n=observed,
        points=tuple(rows),
    )


def cost_sensitivity_sweep(
    factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    *,
    workers: Optional[int] = None,
    cache: Optional[SweepCache] = None,
    **kwargs,
) -> list[SensitivityPoint]:
    """Thresholds across cost scales (slower host ⇒ earlier breakdown).

    One sweep cell per cost factor, dispatched through
    :func:`repro.sweep.run_sweep` (pooled and cache-aware).
    """
    spec = SweepSpec(
        worker=run_sensitivity_point,
        cells=[
            SweepCell(SENSITIVITY_EXPERIMENT, {"factor": f, **kwargs})
            for f in factors
        ],
    )
    return run_sweep(spec, workers=workers, cache=cache).values
