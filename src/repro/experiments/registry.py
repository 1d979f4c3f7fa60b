"""The experiment registry: one row per reproduced paper artifact.

Each :class:`Experiment` row is everything the repository knows about
one artifact: its CLI id and title, the point function that computes
one cell, the cell grid for the quick, full and (optionally) smoke
protocols, the renderer that turns the decoded points into the
printed table, and the CSV rows.  ``repro list``, ``repro run <id>``,
``repro report`` and the artifact benchmarks
(``benchmarks/bench_*.py``) all read their experiments from
:data:`REGISTRY`.

Rows name their point functions as ``"module:function"``; a function's
module is imported when its row first runs.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.ascii_plot import ascii_series_plot
from repro.analysis.tables import format_table
# The package's __init__ loads these modules anyway; the other
# experiment modules are imported when their rows run.
from repro.experiments.accuracy import FIGURE4_QUANTA_MS, FIGURE4_SIZES
from repro.experiments.overhead import FIGURE5_QUANTA_MS
from repro.experiments.scalability import (
    SCALABILITY_EXPERIMENT,
    SCALABILITY_QUANTA_MS,
    SCALABILITY_SIZES,
    analyze_breakdown,
)
from repro.sweep.cache import SweepCache
from repro.sweep.scheduler import SweepCell, SweepOutcome, SweepSpec, run_sweep
from repro.workloads.shares import DISTRIBUTIONS

Grid = Callable[[bool, int, bool], Sequence[Mapping[str, Any]]]


@dataclass(frozen=True)
class Experiment:
    """One paper artifact (see the module docstring)."""

    #: ``repro run`` id and the one-line title ``repro list`` prints.
    id: str
    title: str
    #: Section heading in ``repro report``.
    heading: str
    #: The point function, as ``"module:function"``.
    point: str
    #: Sweep-cache experiment id of one cell.
    experiment: str
    #: ``grid(full, seed, smoke)``: the keyword arguments of each cell.
    grid: Grid
    #: Decoded points -> the artifact's table, as ``repro run`` prints it.
    render: Callable[[Sequence[Any]], str]
    #: Decoded points -> the rows ``repro run --csv`` writes.
    csv_rows: Callable[[Sequence[Any]], list[dict]]
    #: Whether ``grid`` has a CI-sized ``smoke`` protocol.
    smoke: bool = False
    #: Measures this host: never cached, never pooled (a worker process
    #: would time a different address space).
    live: bool = False

    @property
    def point_fn(self) -> Callable[..., Any]:
        module, _, name = self.point.partition(":")
        return getattr(importlib.import_module(module), name)

    def cells(
        self, *, full: bool = False, seed: int = 0, smoke: bool = False,
        **override: Any,
    ) -> list[SweepCell]:
        """The protocol's cells; ``override`` replaces parameters in each."""
        return [
            SweepCell(self.experiment, {**params, **override})
            for params in self.grid(full, seed, smoke)
        ]

    def run(
        self,
        cells: Sequence[SweepCell],
        *,
        workers: Optional[int] = 1,
        cache: Optional[SweepCache] = None,
    ) -> SweepOutcome:
        """Run ``cells`` through the sweep scheduler."""
        spec = SweepSpec(worker=self.point_fn, cells=cells, cacheable=not self.live)
        return run_sweep(spec, workers=1 if self.live else workers, cache=cache)


def run_experiment(
    row: Experiment,
    *,
    full: bool,
    seed: int,
    smoke: bool = False,
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> SweepOutcome:
    """``repro run``/``repro report`` policy: serial unless ``full`` or
    ``workers`` asks for a pool (pool startup dominates the quick
    sweeps), and the result cache unless ``no_cache``."""
    if workers is None and not full:
        workers = 1
    cache = None if no_cache or row.live else SweepCache()
    return row.run(
        row.cells(full=full, seed=seed, smoke=smoke), workers=workers, cache=cache
    )


# ---------------------------------------------------------------------------
# Table 1
def _table1_rows(r) -> list[list[str]]:
    return [
        ["Receive a timer event", f"{r.timer_event_us:.2f}",
         f"{r.PAPER_TIMER_US:.2f}"],
        ["Measure CPU time of n processes",
         f"{r.measure_fixed_us:.1f} + {r.measure_per_proc_us:.1f}n",
         "1.1 + 17.4n"],
        ["Signal a process", f"{r.signal_us:.2f}", f"{r.PAPER_SIGNAL_US:.2f}"],
    ]


TABLE1 = Experiment(
    id="table1",
    title="Table 1 — ALPS primitive operation costs (live host measurement)",
    heading="Table 1 — primitive operation costs",
    point="repro.experiments.table1_ops:run_table1",
    experiment="table1.ops",
    grid=lambda full, seed, smoke: [{"quick": not full}],
    render=lambda points: format_table(
        ["operation", "this host (µs)", "paper (µs)"], _table1_rows(points[0]),
        title="Table 1 — Primary ALPS operation times",
    ),
    csv_rows=lambda points: [
        {"operation": r[0], "host": r[1], "paper": r[2]}
        for r in _table1_rows(points[0])
    ],
    live=True,
)


# ---------------------------------------------------------------------------
# Figure 4
def _fig4_grid(full: bool, seed: int, smoke: bool) -> list[dict]:
    quanta = FIGURE4_QUANTA_MS if full else (10, 20, 30, 40)
    seeds = (seed, seed + 1, seed + 2) if full else (seed,)
    cycles = {5: 200, 10: 200, 20: 200} if full else {5: 120, 10: 70, 20: 40}
    return [
        {"model": model, "n": n, "quantum_ms": q, "cycles": cycles[n],
         "seeds": seeds}
        for model in DISTRIBUTIONS
        for n in FIGURE4_SIZES
        for q in quanta
    ]


def _fig4_render(points) -> str:
    rows = [[p.label, p.quantum_ms, round(p.mean_rms_error_pct, 2)] for p in points]
    series: dict[str, tuple[list, list]] = {}
    for p in points:
        xs, ys = series.setdefault(p.label, ([], []))
        xs.append(p.quantum_ms)
        ys.append(p.mean_rms_error_pct)
    table = format_table(
        ["workload", "Q (ms)", "mean RMS error %"], rows,
        title="Figure 4 — accuracy vs quantum length",
    )
    return f"{table}\n\n{ascii_series_plot(series, title='error % vs Q (ms)')}"


FIG4 = Experiment(
    id="fig4",
    title="Figure 4 — accuracy vs quantum length (Table 2 workloads)",
    heading="Figure 4 — accuracy vs quantum",
    point="repro.experiments.accuracy:run_accuracy_point",
    experiment="fig4.accuracy",
    grid=_fig4_grid,
    render=_fig4_render,
    csv_rows=lambda points: [
        {"workload": p.label, "quantum_ms": p.quantum_ms,
         "error_pct": p.mean_rms_error_pct}
        for p in points
    ],
)


# ---------------------------------------------------------------------------
# Figure 5 and its measurement-postponement ablation
def _fig5_grid(full: bool, seed: int, smoke: bool) -> list[dict]:
    return [
        {"model": model, "n": n, "quantum_ms": q,
         "cycles": 100 if full else 40, "seed": seed, "optimized": True}
        for model in DISTRIBUTIONS
        for q in FIGURE5_QUANTA_MS
        for n in (5, 10, 15, 20)
    ]


FIG5 = Experiment(
    id="fig5",
    title="Figure 5 — overhead vs workload size/distribution",
    heading="Figure 5 — overhead",
    point="repro.experiments.overhead:run_overhead_point",
    experiment="fig5.overhead",
    grid=_fig5_grid,
    render=lambda points: format_table(
        ["model", "N", "Q (ms)", "overhead %"],
        [[p.model.value, p.n, p.quantum_ms, round(p.overhead_pct, 3)]
         for p in points],
        title="Figure 5 — overhead vs workload",
    ),
    csv_rows=lambda points: [
        {"model": p.model.value, "n": p.n, "quantum_ms": p.quantum_ms,
         "overhead_pct": p.overhead_pct}
        for p in points
    ],
)


def _ablation_grid(full: bool, seed: int, smoke: bool) -> list[dict]:
    return [
        {"model": model, "n": n, "quantum_ms": 10,
         "cycles": 100 if full else 40, "seed": seed, "optimized": optimized}
        for model in DISTRIBUTIONS
        for n in (5, 10, 20)
        for optimized in (True, False)
    ]


def _ablation_csv(points) -> list[dict]:
    """One row per workload: the (optimized, unoptimized) cell pair."""
    return [
        {"workload": f"{opt.model.value}{opt.n}",
         "unoptimized_pct": unopt.overhead_pct,
         "optimized_pct": opt.overhead_pct,
         "factor": unopt.overhead_pct / opt.overhead_pct}
        for opt, unopt in zip(points[0::2], points[1::2])
    ]


ABLATION = Experiment(
    id="ablation",
    title="§2.3/§3.2 ablation — measurement-postponement optimization",
    heading="Ablation — measurement postponement",
    point=FIG5.point,
    experiment=FIG5.experiment,
    grid=_ablation_grid,
    render=lambda points: format_table(
        ["workload", "unoptimized %", "optimized %", "factor"],
        [[r["workload"], round(r["unoptimized_pct"], 3),
          round(r["optimized_pct"], 3), round(r["factor"], 2)]
         for r in _ablation_csv(points)],
        title="Ablation — measurement postponement (paper: 1.8×–5.9×)",
    ),
    csv_rows=_ablation_csv,
)


# ---------------------------------------------------------------------------
# Figure 6
def _fig6_render(points) -> str:
    result = points[0]
    rows = [
        [label, *(round(x, 1) for x in result.mean_shares(mask))]
        for label, mask in (
            ("steady (pre-I/O)", result.steady_mask),
            ("B active", result.active_mask),
            ("B blocked", result.blocked_mask),
        )
    ]
    return format_table(
        ["phase", "A (1 share) %", "B (2 shares) %", "C (3 shares) %"], rows,
        title=f"Figure 6 — I/O redistribution (I/O starts at cycle "
        f"{result.io_start_cycle})",
    )


FIG6 = Experiment(
    id="fig6",
    title="Figure 6 — I/O redistribution timeline",
    heading="Figure 6 — I/O redistribution",
    point="repro.experiments.io:run_io_experiment",
    experiment="fig6.io",
    grid=lambda full, seed, smoke: [
        {"total_cycles": 1200 if full else 800, "warmup_cpu_s": 8.0,
         "seed": seed}
    ],
    render=_fig6_render,
    csv_rows=lambda points: [
        {"cycle": int(cycle), "A_pct": a, "B_pct": b, "C_pct": c}
        for cycle, (a, b, c) in zip(points[0].cycle_indices, points[0].share_pct)
    ],
)


# ---------------------------------------------------------------------------
# Figure 7 + Table 3
def _fig7_render(points) -> str:
    table = points[0].table3()
    rows = [
        [r["share"], r["group"], round(r["target_pct"], 1),
         r["phase1_pct"], r["phase1_relerr"],
         r["phase2_pct"], r["phase2_relerr"],
         r["phase3_pct"], r["phase3_relerr"]]
        for r in table
    ]
    errs = [
        r[f"phase{p}_relerr"]
        for r in table for p in (1, 2, 3) if r[f"phase{p}_relerr"] is not None
    ]
    text = format_table(
        ["S", "grp", "target%", "ph1%", "re1", "ph2%", "re2", "ph3%", "re3"],
        rows,
        title="Table 3 — accuracy of multiple ALPSs",
    )
    return f"{text}\n\naverage relative error: {np.mean(errs):.2f}%  (paper: 0.93%)"


FIG7 = Experiment(
    id="fig7",
    title="Figure 7 + Table 3 — multiple concurrent ALPSs",
    heading="Figure 7 / Table 3 — multiple ALPSs",
    point="repro.experiments.multi:run_multi_alps_experiment",
    experiment="fig7.multi",
    grid=lambda full, seed, smoke: [{"seed": seed}],
    render=_fig7_render,
    csv_rows=lambda points: points[0].table3(),
)


# ---------------------------------------------------------------------------
# Figures 8/9 + Section 4.2
def _fig8_grid(full: bool, seed: int, smoke: bool) -> list[dict]:
    sizes = SCALABILITY_SIZES if full else (5, 10, 20, 30, 40, 60, 80)
    return [
        {"n": n, "quantum_ms": q, "cycles": 40 if full else 25, "seed": seed,
         "max_wall_s": 600.0}
        for q in SCALABILITY_QUANTA_MS
        for n in sizes
    ]


def _fig8_render(points) -> str:
    points_table = format_table(
        ["N", "Q (ms)", "overhead %", "RMS error %"],
        [[p.n, p.quantum_ms, round(p.overhead_pct, 3),
          round(p.mean_rms_error_pct, 1)] for p in points],
        title="Figures 8/9 — scalability",
    )
    breakdown_table = format_table(
        ["Q (ms)", "U_Q(N)", "predicted N*", "observed N*"],
        [[a.quantum_ms, f"{a.fit.slope:.4f}N+{a.fit.intercept:.4f}",
          round(a.predicted_n), a.observed_n]
         for a in analyze_breakdown(points)],
        title="Section 4.2 — breakdown thresholds "
        "(paper: pred. 39/54/75, obs. 40/60/90)",
    )
    return f"{points_table}\n\n{breakdown_table}"


FIG8 = Experiment(
    id="fig8",
    title="Figures 8/9 + §4.2 — scalability and breakdown thresholds",
    heading="Figures 8/9 — scalability & breakdown",
    point="repro.experiments.scalability:run_scalability_point",
    experiment=SCALABILITY_EXPERIMENT,
    grid=_fig8_grid,
    render=_fig8_render,
    csv_rows=lambda points: [
        {"n": p.n, "quantum_ms": p.quantum_ms, "overhead_pct": p.overhead_pct,
         "error_pct": p.mean_rms_error_pct}
        for p in points
    ],
)


# ---------------------------------------------------------------------------
# Section 5
def _sec5_render(points) -> str:
    r = points[0]
    table = format_table(
        ["site", "share", "kernel-only rps", "with ALPS rps"],
        [[i + 1, r.shares[i], round(r.baseline_rps[i], 1),
          round(r.alps_rps[i], 1)] for i in range(3)],
        title="Section 5 — shared web server "
        "(paper: {29,30,40} → {18,35,53})",
    )
    return f"{table}\n\nALPS overhead: {r.alps_overhead_pct:.2f}%"


SEC5 = Experiment(
    id="sec5",
    title="Section 5 — shared web server isolation",
    heading="Section 5 — shared web server",
    point="repro.experiments.webserver:run_webserver_experiment",
    experiment="sec5.webserver",
    grid=lambda full, seed, smoke: [
        {"warmup_s": 20.0 if full else 15.0,
         "measure_s": 60.0 if full else 45.0, "seed": seed}
    ],
    render=_sec5_render,
    csv_rows=lambda points: [
        {"site": i + 1, "share": points[0].shares[i],
         "baseline_rps": points[0].baseline_rps[i],
         "alps_rps": points[0].alps_rps[i]}
        for i in range(3)
    ],
)


# ---------------------------------------------------------------------------
# Overload past the §4.2 knee (docs/overload.md)
def _overload_grid(full: bool, seed: int, smoke: bool) -> list[dict]:
    from repro.experiments import overload

    knee, past = overload.KNEE_N, overload.PAST_KNEE_N
    return [
        {"n": n, "quantum_ms": overload.OVERLOAD_QUANTUM_MS, "ladder": ladder,
         "cycles": 60 if full else 40, "seed": seed, "max_wall_s": 40.0}
        for n in ((knee, 60, past, 120) if full else (knee, past))
        for ladder in (True, False)
    ]


def _overload_render(points) -> str:
    from repro.experiments.overload import KNEE_N, OverloadComparison

    lines = [format_table(
        ["N", "arm", "RMS error %", "engaged", "sheds", "max slip (q)"],
        [[p.n, "ladder" if p.ladder else "control",
          round(p.mean_rms_error_pct, 1), p.engagements, p.sheds,
          round(p.max_degraded_slip_quanta, 1)] for p in points],
        title=f"Overload — bounded degradation past the knee (knee N={KNEE_N})",
    ), ""]
    for n in dict.fromkeys(p.n for p in points):
        protected = next(p for p in points if p.n == n and p.ladder)
        control = next(p for p in points if p.n == n and not p.ladder)
        ratio = OverloadComparison(protected, control).error_ratio
        lines.append(
            f"N={n:>3}: ladder {protected.mean_rms_error_pct:.1f}% vs "
            f"control {control.mean_rms_error_pct:.1f}%  (ratio {ratio:.2f})"
        )
    return "\n".join(lines)


OVERLOAD = Experiment(
    id="overload",
    title="overload protection — bounded degradation past the §4.2 knee",
    heading="Overload — bounded degradation past the knee",
    point="repro.experiments.overload:run_overload_point",
    experiment="overload.past_knee",
    grid=_overload_grid,
    render=_overload_render,
    csv_rows=lambda points: [
        {"n": p.n, "ladder": p.ladder, "error_pct": p.mean_rms_error_pct,
         "engagements": p.engagements, "sheds": p.sheds,
         "readmits": p.readmits,
         "max_degraded_slip_quanta": p.max_degraded_slip_quanta,
         "overhead_pct": p.overhead_pct}
        for p in points
    ],
)


# ---------------------------------------------------------------------------
# Gunther's ratios-not-guarantees share tree (docs/share_tree.md)
def _sharetree_grid(full: bool, seed: int, smoke: bool) -> list[dict]:
    from repro.experiments.sharetree import SHARETREE_QUANTUM_MS, SIBLING_COUNTS

    if smoke:
        ks, cell_counts, cycles, horizon_s = (1, 4), (1,), 20, 6.0
    elif full:
        ks, cell_counts, cycles, horizon_s = SIBLING_COUNTS, (1, 2), 60, 12.0
    else:
        ks, cell_counts, cycles, horizon_s = SIBLING_COUNTS, (1,), 40, 10.0
    return [
        {"k": k, "cells": cells, "quantum_ms": SHARETREE_QUANTUM_MS,
         "cycles": cycles, "seed": seed, "horizon_s": horizon_s}
        for cells in cell_counts
        for k in ks
    ]


def _sharetree_render(points) -> str:
    from repro.experiments.sharetree import TENANT_WEIGHT, throughput_variation

    table = format_table(
        ["siblings k", "cells", "share ratio", "attained ratio",
         "ratio err %", "tenant frac", "tenant µs/s"],
        [[p.k, p.cells, f"{p.share_ratio:.1f}", f"{p.attained_ratio:.2f}",
          f"{p.ratio_error_pct:.1f}", f"{p.tenant_fraction:.1%}",
          f"{p.tenant_us_per_s:,.0f}"] for p in points],
        title=(
            "Share tree — shares bound ratios, not guarantees "
            f"(tenant weight {TENANT_WEIGHT} vs k unit siblings)"
        ),
    )
    single = [p for p in points if p.cells == 1]
    worst = max(p.ratio_error_pct for p in single)
    return (
        f"{table}\n\nratio stays within {worst:.1f}% of the share-bound "
        f"{TENANT_WEIGHT}:1 envelope while absolute tenant throughput varies "
        f"{throughput_variation(single):.1f}x across load points — shares "
        f"bound ratios, never throughput."
    )


SHARETREE = Experiment(
    id="sharetree",
    title="share tree — Gunther's 'shares bound ratios, not guarantees'",
    heading="Share tree — shares bound ratios, not guarantees",
    point="repro.experiments.sharetree:run_sharetree_point",
    experiment="sharetree.gunther",
    grid=_sharetree_grid,
    render=_sharetree_render,
    csv_rows=lambda points: [
        {"k": p.k, "cells": p.cells, "share_ratio": p.share_ratio,
         "attained_ratio": p.attained_ratio,
         "ratio_error_pct": p.ratio_error_pct,
         "tenant_fraction": p.tenant_fraction,
         "tenant_us_per_s": p.tenant_us_per_s,
         "cycles": p.cycles_completed, "wall_us": p.wall_us}
        for p in points
    ],
    smoke=True,
)


#: Every reproduced artifact, in paper order.
REGISTRY: tuple[Experiment, ...] = (
    TABLE1, FIG4, FIG5, FIG6, FIG7, FIG8, SEC5, ABLATION, OVERLOAD, SHARETREE,
)
#: The rows by ``repro run`` id.
EXPERIMENTS: dict[str, Experiment] = {row.id: row for row in REGISTRY}
