"""Figure 7 + Table 3: multiple concurrent ALPS schedulers.

Three independent groups, each with its own ALPS (Q = 10 ms):

* group A — shares {7, 8, 9}, starts at t = 0
* group B — shares {4, 5, 6}, starts at t ≈ 3 s
* group C — shares {1, 2, 3}, starts at t ≈ 6 s

Each ALPS must apportion whatever CPU the kernel gives its group in the
group's own share proportions, regardless of the other groups.  The
paper fits each process's cumulative CPU consumption per phase and
reports per-group fractional CPU and relative error (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.alps.config import AlpsConfig
from repro.metrics.regression import phase_fractions
from repro.units import ms, sec
from repro.workloads.scenarios import MultiAlpsScenario, build_multi_alps_scenario

#: (label, shares, start time) of the paper's three groups.
GROUP_SPECS = (
    ("A", (7, 8, 9), 0),
    ("B", (4, 5, 6), 3 * 1_000_000),
    ("C", (1, 2, 3), 6 * 1_000_000),
)


@dataclass(slots=True, frozen=True)
class ProcessSeries:
    """Cumulative CPU samples (at its ALPS's cycle ends) of one process."""

    label: str  # e.g. "A" (group)
    share: int
    times_us: np.ndarray
    cumulative_us: np.ndarray


@dataclass(slots=True)
class MultiAlpsResult:
    """Everything needed to draw Figure 7 and fill Table 3."""

    series: dict[str, ProcessSeries] = field(default_factory=dict)
    phase_windows: dict[int, tuple[int, int]] = field(default_factory=dict)

    def table3(self) -> list[dict]:
        """Rows of Table 3: per-process target vs measured %CPU per phase.

        Each row has the process's share, its group, its target in-group
        percentage, and per-phase measured percentage + relative error
        (None where the process was not yet running).
        """
        rows: list[dict] = []
        # Per-phase in-group fractions from regression slopes.
        fractions_by_phase: dict[int, dict[str, dict[int, float]]] = {}
        for phase, window in self.phase_windows.items():
            by_group: dict[str, dict[int, float]] = {}
            for group in sorted({s.label for s in self.series.values()}):
                group_series = {
                    share: (s.times_us, s.cumulative_us)
                    for key, s in self.series.items()
                    if s.label == group
                    for share in [s.share]
                }
                by_group[group] = phase_fractions(group_series, window)
            fractions_by_phase[phase] = by_group

        for key in sorted(self.series, key=lambda k: self.series[k].share):
            s = self.series[key]
            group_total = sum(
                t.share for t in self.series.values() if t.label == s.label
            )
            target = 100.0 * s.share / group_total
            row = {"share": s.share, "group": s.label, "target_pct": target}
            for phase in sorted(self.phase_windows):
                frac = fractions_by_phase[phase][s.label].get(s.share)
                if frac is None or frac == 0.0:
                    row[f"phase{phase}_pct"] = None
                    row[f"phase{phase}_relerr"] = None
                else:
                    measured = 100.0 * frac
                    row[f"phase{phase}_pct"] = measured
                    row[f"phase{phase}_relerr"] = (
                        100.0 * abs(measured - target) / target
                    )
            rows.append(row)
        return rows


def run_multi_alps_experiment(
    *,
    quantum_ms: float = 10.0,
    phase_ends_s: tuple[float, float, float] = (3.0, 6.0, 15.0),
    seed: int = 0,
) -> MultiAlpsResult:
    """Run the Section 4.1 experiment and sample cumulative consumption."""
    scenario: MultiAlpsScenario = build_multi_alps_scenario(
        GROUP_SPECS, AlpsConfig(quantum_us=ms(quantum_ms)), seed=seed
    )
    kernel = scenario.kernel
    engine = scenario.engine

    samples: dict[str, tuple[list[int], list[int]]] = {}
    for group in scenario.groups:
        for i, worker in enumerate(group.workers):
            samples[f"{group.label}{i}"] = ([], [])

    # Sample each process's cumulative CPU every 100 ms of real time —
    # finer than the paper's cycle-end sampling but equivalent for the
    # regression slopes.
    def sampler(event) -> None:
        for group in scenario.groups:
            if kernel.now < group.start_time:
                continue
            for i, worker in enumerate(group.workers):
                times, values = samples[f"{group.label}{i}"]
                times.append(kernel.now)
                values.append(kernel.getrusage(worker.pid))
        engine.after(100 * 1000, sampler, tag="fig7-sampler")

    engine.after(100 * 1000, sampler, tag="fig7-sampler")
    engine.run_until(sec(phase_ends_s[2]))

    result = MultiAlpsResult()
    for group in scenario.groups:
        for i, worker in enumerate(group.workers):
            key = f"{group.label}{i}"
            times, values = samples[key]
            result.series[key] = ProcessSeries(
                label=group.label,
                share=group.shares[i],
                times_us=np.asarray(times),
                cumulative_us=np.asarray(values),
            )
    # Phase windows, with small margins so fork transients at phase
    # boundaries do not leak into the fits.
    margin = int(0.3 * 1_000_000)
    bounds = [0] + [int(p * 1_000_000) for p in phase_ends_s]
    for phase in (1, 2, 3):
        result.phase_windows[phase] = (
            bounds[phase - 1] + margin,
            bounds[phase] - margin,
        )
    return result
