"""Robustness: allocation accuracy under deterministic fault injection.

The paper's §4.2 breakdown shows *when* a user-level scheduler loses
control; this experiment measures *how gracefully*.  Each point runs
the standard controlled workload under a seeded
:class:`~repro.faults.plan.FaultPlan` (signal loss and delay, transient
accounting-read failures, agent stalls, and — at higher rates — an
agent crash-with-restart) and reports the allocation accuracy
(:func:`repro.metrics.accuracy.mean_rms_relative_error`) against the
fault-free baseline.  Graceful degradation becomes a measured curve:
error should rise smoothly with the fault rate, never cliff, and no
run may end with a live controlled process wedged in SIGSTOP.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.alps.config import AlpsConfig
from repro.experiments.common import run_for_cycles
from repro.faults.plan import FaultPlan, default_fault_plan
from repro.metrics.accuracy import mean_rms_relative_error
from repro.sweep.cache import SweepCache
from repro.sweep.scheduler import SweepCell, SweepSpec, run_sweep
from repro.units import ms
from repro.workloads.scenarios import build_controlled_workload

#: Sweep-cache experiment id of one robustness (fault-rate) cell.
ROBUSTNESS_EXPERIMENT = "robustness.faults"

#: Fault rates on the default sweep's x-axis.
DEFAULT_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)
#: Workload shares of the default sweep (S = 10, cycle = 10 Q).
DEFAULT_SHARES = (1, 2, 3, 4)


@dataclass(slots=True, frozen=True)
class RobustnessPoint:
    """One fault rate's outcome, aggregated over seeds."""

    fault_rate: float
    mean_rms_error_pct: float
    #: Error increase over the sweep's fault-free baseline (filled in by
    #: :func:`robustness_sweep`; NaN for a standalone point).
    degradation_pct: float
    cycles: int
    per_seed_errors: tuple[float, ...]
    # -- injected-fault census (summed over seeds) ------------------
    signals_dropped: int
    signals_delayed: int
    reads_failed: int
    stalls_injected: int
    agent_crashes: int
    # -- recovery census (summed over seeds) ------------------------
    agent_restarts: int
    rebaselines: int
    heals: int
    signal_retries: int
    read_retries: int
    #: Live controlled processes still stopped after shutdown — the
    #: no-wedged-subject guarantee; must be zero.
    wedged_at_end: int


def run_robustness_point(
    fault_rate: float,
    *,
    shares: Sequence[int] = DEFAULT_SHARES,
    quantum_ms: float = 10.0,
    cycles: int = 120,
    seeds: Sequence[int] = (0, 1),
    warmup_cycles: int = 5,
    agent_crash: bool = True,
    plan_factory=default_fault_plan,
) -> RobustnessPoint:
    """Run one fault rate and summarise accuracy plus fault/recovery
    censuses.  ``plan_factory(rate, seed=..., horizon_us=...)`` maps the
    scalar rate to a concrete plan (default: the standard mix)."""
    total_cycles = cycles + warmup_cycles
    # Horizon generously covers the run so mid-horizon agent crashes
    # land inside it even when faults stretch the cycles.
    horizon_us = int(
        2 * total_cycles * sum(shares) * ms(quantum_ms)
    )
    errors: list[float] = []
    counters = {
        "signals_dropped": 0,
        "signals_delayed": 0,
        "reads_failed": 0,
        "stalls_injected": 0,
        "agent_crashes": 0,
        "agent_restarts": 0,
        "rebaselines": 0,
        "heals": 0,
        "signal_retries": 0,
        "read_retries": 0,
        "wedged_at_end": 0,
    }
    for seed in seeds:
        plan: FaultPlan = plan_factory(
            fault_rate, seed=seed, horizon_us=horizon_us, agent_crash=agent_crash
        )
        cw = build_controlled_workload(
            list(shares),
            AlpsConfig(quantum_us=ms(quantum_ms)),
            seed=seed,
            fault_plan=plan,
        )
        # Heavy fault plans can stall progress past the sim bound; a
        # partial log is still a robustness result, but say so.
        run_for_cycles(cw, total_cycles, on_incomplete="warn")
        # A real controller resumes its subjects on the way out; do the
        # same, then audit kernel truth for anything left wedged.
        cw.agent.shutdown(cw.kernel.kapi)
        counters["wedged_at_end"] += count_wedged(cw)
        errors.append(
            mean_rms_relative_error(cw.agent.cycle_log, skip=warmup_cycles)
        )
        inj = cw.injector
        if inj is not None:
            counters["signals_dropped"] += inj.signals_dropped
            counters["signals_delayed"] += inj.signals_delayed
            counters["reads_failed"] += inj.reads_failed
            counters["stalls_injected"] += inj.stalls_injected
            counters["agent_crashes"] += inj.agent_crashes_injected
        counters["agent_restarts"] += cw.agent.restarts
        counters["rebaselines"] += cw.agent.rebaselines
        counters["heals"] += cw.agent.heals
        counters["signal_retries"] += cw.agent.signal_retries
        counters["read_retries"] += cw.agent.read_retries
    return RobustnessPoint(
        fault_rate=fault_rate,
        mean_rms_error_pct=float(np.mean(errors)),
        degradation_pct=float("nan"),
        cycles=cycles,
        per_seed_errors=tuple(errors),
        **counters,
    )


def count_wedged(cw) -> int:
    """Live controlled processes currently job-control stopped."""
    wedged = 0
    for proc in cw.workers:
        try:
            if cw.kernel.is_stopped(proc.pid):
                wedged += 1
        except Exception:
            continue  # dead — cannot be wedged
    return wedged


def robustness_sweep(
    rates: Sequence[float] = DEFAULT_RATES,
    *,
    shares: Sequence[int] = DEFAULT_SHARES,
    quantum_ms: float = 10.0,
    cycles: int = 120,
    seeds: Sequence[int] = (0, 1),
    warmup_cycles: int = 5,
    agent_crash: bool = True,
    workers: Optional[int] = None,
    cache: Optional[SweepCache] = None,
) -> list[RobustnessPoint]:
    """The accuracy-degradation-versus-fault-rate curve.

    The first returned point is always the fault-free baseline (rate 0
    is prepended if absent); every point's ``degradation_pct`` is its
    error minus the baseline's.  Cells are independent and dispatch
    through :func:`repro.sweep.run_sweep`; the baseline subtraction is
    applied to the (possibly cached) per-rate results afterwards.  Cells
    always use the default ``plan_factory``: a callable has no stable
    content address, so custom plans call :func:`run_robustness_point`
    directly, uncached.
    """
    swept = list(rates)
    if 0.0 not in swept:
        swept.insert(0, 0.0)
    swept.sort()
    spec = SweepSpec(
        worker=run_robustness_point,
        cells=[
            SweepCell(
                ROBUSTNESS_EXPERIMENT,
                {"fault_rate": rate, "shares": shares,
                 "quantum_ms": quantum_ms, "cycles": cycles, "seeds": seeds,
                 "warmup_cycles": warmup_cycles, "agent_crash": agent_crash},
            )
            for rate in swept
        ],
    )
    raw = run_sweep(spec, workers=workers, cache=cache).values
    baseline = raw[0].mean_rms_error_pct
    return [
        replace(p, degradation_pct=p.mean_rms_error_pct - baseline)
        for p in raw
    ]
