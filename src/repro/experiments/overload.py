"""Past-the-knee overload experiment (docs/overload.md).

Section 4.2 locates the breakdown knee: the smallest equal-share group
size whose accuracy error exceeds 15 % (n = 40 at Q = 10 ms under this
simulator's calibration).  This experiment parks a workload at **twice**
that knee and compares two runs that differ only in whether the
graceful-degradation ladder is armed:

* *control* (ladder disabled) — reproduces the seed's cliff: the agent
  starves in multi-second outages and the error climbs past 60 %.
* *protected* (ladder enabled) — the timer-slip monitor detects the
  first outage, the ladder stretches/coarsens/sheds, and the error
  plateaus at the degraded-enforcement level instead of the cliff.

``bench_overload_degradation.py`` gates the protected error under
``REPRO_OVERLOAD_MAX_ERROR`` and requires the control to stay *above*
``REPRO_OVERLOAD_MIN_CLIFF`` — both halves of the claim are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.alps.config import AlpsConfig
from repro.experiments.common import run_for_cycles
from repro.metrics.accuracy import mean_rms_relative_error
from repro.overload import OverloadConfig, OverloadGuard
from repro.units import SEC, ms
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.shares import equal_shares

#: Observed Section 4.2 knee at Q = 10 ms (first N with error > 15 %).
KNEE_N = 40
#: The experiment's operating point: twice the knee.
PAST_KNEE_N = 2 * KNEE_N
#: Quantum used for the knee calibration and this experiment.
OVERLOAD_QUANTUM_MS = 10.0
#: Shares per process (matches the scalability sweep).
SHARES_PER_PROCESS = 5


@dataclass(slots=True, frozen=True)
class OverloadPoint:
    """One (N, ladder on/off) cell of the past-the-knee experiment."""

    n: int
    quantum_ms: float
    ladder: bool
    mean_rms_error_pct: float
    cycles_completed: int
    wall_us: int
    overhead_pct: float
    # -- guard telemetry (zeros when the ladder is disabled) --------
    engagements: int
    max_rung_seen: int
    sheds: int
    readmits: int
    shed_outstanding: int
    max_degraded_slip_quanta: float
    slip_max_quanta: float


def run_overload_point(
    n: int = PAST_KNEE_N,
    quantum_ms: float = OVERLOAD_QUANTUM_MS,
    *,
    ladder: bool = True,
    cycles: int = 60,
    seed: int = 0,
    max_wall_s: float = 40.0,
    overload_config: Optional[OverloadConfig] = None,
) -> OverloadPoint:
    """One overload cell: equal shares at ``n``, ladder on or off.

    The wall bound matters more than the cycle bound: past the knee the
    control's cycles stretch enormously, and both arms must observe the
    same horizon for their errors to be comparable.
    """
    guard: Optional[OverloadGuard] = None
    if ladder:
        guard = OverloadGuard(overload_config)
    cw = build_controlled_workload(
        equal_shares(n, SHARES_PER_PROCESS),
        AlpsConfig(quantum_us=ms(quantum_ms)),
        seed=seed,
        overload=guard,
    )
    run_for_cycles(
        cw, cycles, max_sim_us=int(max_wall_s * SEC), on_incomplete="ignore"
    )
    wall = cw.kernel.now
    overhead = 100.0 * cw.kernel.getrusage(cw.alps_proc.pid) / wall
    err = mean_rms_relative_error(cw.agent.cycle_log, skip=3)
    if guard is not None:
        telemetry = dict(
            engagements=guard.ladder.engagements,
            max_rung_seen=int(guard.ladder.max_rung_seen),
            sheds=guard.sheds,
            readmits=guard.readmits,
            shed_outstanding=guard.shed_outstanding,
            max_degraded_slip_quanta=guard.max_degraded_slip_quanta,
            slip_max_quanta=guard.slip.max_quanta,
        )
    else:
        telemetry = dict(
            engagements=0,
            max_rung_seen=0,
            sheds=0,
            readmits=0,
            shed_outstanding=0,
            max_degraded_slip_quanta=0.0,
            slip_max_quanta=0.0,
        )
    return OverloadPoint(
        n=n,
        quantum_ms=quantum_ms,
        ladder=ladder,
        mean_rms_error_pct=err,
        cycles_completed=len(cw.agent.cycle_log),
        wall_us=wall,
        overhead_pct=overhead,
        **telemetry,
    )


@dataclass(slots=True, frozen=True)
class OverloadComparison:
    """The protected-vs-control pair the acceptance gate reads."""

    protected: OverloadPoint
    control: OverloadPoint

    @property
    def error_ratio(self) -> float:
        """Protected error as a fraction of the control's cliff."""
        if self.control.mean_rms_error_pct <= 0:
            return float("inf")
        return self.protected.mean_rms_error_pct / self.control.mean_rms_error_pct
