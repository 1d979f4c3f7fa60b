"""Figures 8/9 and the Section 4.2 breakdown thresholds.

Equal-share workloads (5 shares per process); the process count grows
until ALPS loses control.  For each quantum length the initial linear
region of overhead-vs-N is fitted (``U_Q(N)``) and the breakdown
threshold predicted from ``U_Q(N*) = 100/(N*+1)`` is compared with the
observed knee in the error curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.alps.config import AlpsConfig
from repro.experiments.common import run_for_cycles
from repro.metrics.accuracy import mean_rms_relative_error
from repro.metrics.breakdown import predicted_threshold
from repro.metrics.overhead import OverheadFit, fit_overhead_line
from repro.sweep.cache import SweepCache
from repro.sweep.scheduler import SweepCell, SweepSpec, run_sweep
from repro.units import SEC, ms
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.shares import equal_shares

#: Sweep-cache experiment id of one Figures 8/9 cell (the ``fig8``
#: registry row's too; defined here so that the ledger's entry point,
#: :func:`scalability_sweep`, runs without loading the registry).
SCALABILITY_EXPERIMENT = "fig8.scalability"

#: Quantum lengths of Figures 8/9.
SCALABILITY_QUANTA_MS = (10, 20, 40)
#: Default process counts swept (the paper goes to 120).
SCALABILITY_SIZES = (5, 10, 20, 30, 40, 50, 60, 80, 100, 120)
#: Shares per process in the sweep.
SHARES_PER_PROCESS = 5


@dataclass(slots=True, frozen=True)
class ScalabilityPoint:
    """One (N, quantum) cell of Figures 8/9."""

    n: int
    quantum_ms: float
    overhead_pct: float
    mean_rms_error_pct: float
    cycles_completed: int
    wall_us: int


@dataclass(slots=True, frozen=True)
class BreakdownAnalysis:
    """Per-quantum linear fit and thresholds (Section 4.2)."""

    quantum_ms: float
    fit: OverheadFit
    predicted_n: float
    observed_n: Optional[int]


def run_scalability_point(
    n: int,
    quantum_ms: float,
    *,
    cycles: int = 40,
    seed: int = 0,
    max_wall_s: float = 600.0,
) -> ScalabilityPoint:
    """One scalability cell: run for a bounded number of cycles/wall time."""
    cw = build_controlled_workload(
        equal_shares(n, SHARES_PER_PROCESS),
        AlpsConfig(quantum_us=ms(quantum_ms)),
        seed=seed,
    )
    # Past the breakdown threshold cycles stretch enormously and the
    # wall bound cuts the run short on purpose; short logs are the
    # signal this experiment exists to measure.
    run_for_cycles(
        cw, cycles, max_sim_us=int(max_wall_s * SEC), on_incomplete="ignore"
    )
    wall = cw.kernel.now
    overhead = 100.0 * cw.kernel.getrusage(cw.alps_proc.pid) / wall
    err = mean_rms_relative_error(cw.agent.cycle_log, skip=3)
    return ScalabilityPoint(
        n=n,
        quantum_ms=quantum_ms,
        overhead_pct=overhead,
        mean_rms_error_pct=err,
        cycles_completed=len(cw.agent.cycle_log),
        wall_us=wall,
    )


def scalability_sweep(
    *,
    sizes: Sequence[int] = SCALABILITY_SIZES,
    quanta_ms: Sequence[float] = SCALABILITY_QUANTA_MS,
    cycles: int = 40,
    seed: int = 0,
    max_wall_s: float = 600.0,
    workers: Optional[int] = None,
    cache: Optional[SweepCache] = None,
) -> list[ScalabilityPoint]:
    """The Figures 8/9 matrix over ``sizes`` × ``quanta_ms`` (pooled and
    cache-aware via :func:`repro.sweep.run_sweep`)."""
    spec = SweepSpec(
        worker=run_scalability_point,
        cells=[
            SweepCell(
                SCALABILITY_EXPERIMENT,
                {"n": n, "quantum_ms": q, "cycles": cycles, "seed": seed,
                 "max_wall_s": max_wall_s},
            )
            for q in quanta_ms
            for n in sizes
        ],
    )
    return run_sweep(spec, workers=workers, cache=cache).values


def analyze_breakdown(
    points: Sequence[ScalabilityPoint],
    *,
    fit_region_max_overhead_ratio: float = 0.6,
    error_knee_pct: float = 15.0,
) -> list[BreakdownAnalysis]:
    """Fit ``U_Q(N)`` on the pre-breakdown region and locate thresholds.

    The fit uses points whose overhead is below
    ``fit_region_max_overhead_ratio × 100/(N+1)`` (comfortably inside
    the linear region); the observed threshold is the smallest N whose
    mean RMS error exceeds ``error_knee_pct``.
    """
    analyses: list[BreakdownAnalysis] = []
    for q in sorted({p.quantum_ms for p in points}):
        qpoints = sorted(
            (p for p in points if p.quantum_ms == q), key=lambda p: p.n
        )
        linear = [
            p
            for p in qpoints
            if p.overhead_pct < fit_region_max_overhead_ratio * 100.0 / (p.n + 1)
        ]
        if len(linear) < 2:
            linear = qpoints[:2]
        fit = fit_overhead_line(
            [p.n for p in linear], [p.overhead_pct for p in linear]
        )
        predicted = predicted_threshold(fit.slope, max(fit.intercept, 0.0))
        observed: Optional[int] = None
        for p in qpoints:
            if p.mean_rms_error_pct > error_knee_pct:
                observed = p.n
                break
        analyses.append(
            BreakdownAnalysis(
                quantum_ms=q, fit=fit, predicted_n=predicted, observed_n=observed
            )
        )
    return analyses
