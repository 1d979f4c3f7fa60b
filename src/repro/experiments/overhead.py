"""Figure 5: overhead of ALPS across workloads and quantum lengths.

Overhead is the CPU time consumed by the ALPS process divided by the
wall-clock duration of the experiment (Section 3.2).  The same sweep
with ``optimized=False`` provides the Section 2.3 ablation (the paper
reports the optimization cuts overhead by 1.8–5.9×).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alps.config import AlpsConfig
from repro.experiments.common import run_for_cycles
from repro.units import ms
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.shares import ShareDistribution, workload_shares

#: Quantum lengths (ms) plotted in Figure 5.
FIGURE5_QUANTA_MS = (10, 20, 40)


@dataclass(slots=True, frozen=True)
class OverheadPoint:
    """One point of Figure 5 (or its unoptimized ablation twin)."""

    model: ShareDistribution
    n: int
    quantum_ms: float
    overhead_pct: float
    optimized: bool
    alps_cpu_us: int
    wall_us: int
    invocations: int
    reads: int


def run_overhead_point(
    model: ShareDistribution,
    n: int,
    quantum_ms: float,
    *,
    cycles: int = 60,
    seed: int = 0,
    optimized: bool = True,
    warmup_cycles: int = 3,
) -> OverheadPoint:
    """Measure ALPS overhead for one workload/quantum combination."""
    shares = workload_shares(model, n)
    cw = build_controlled_workload(
        shares,
        AlpsConfig(quantum_us=ms(quantum_ms), optimized=optimized),
        seed=seed,
    )
    run_for_cycles(cw, cycles + warmup_cycles)
    wall = cw.kernel.now
    alps_cpu = cw.kernel.getrusage(cw.alps_proc.pid)
    return OverheadPoint(
        model=model,
        n=n,
        quantum_ms=quantum_ms,
        overhead_pct=100.0 * alps_cpu / wall,
        optimized=optimized,
        alps_cpu_us=alps_cpu,
        wall_us=wall,
        invocations=cw.agent.invocations,
        reads=cw.agent.reads,
    )
