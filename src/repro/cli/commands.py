"""CLI command implementations.

Each ``cmd_*`` runs one experiment, prints the paper-style table, and
optionally writes a CSV.  ``full=True`` switches to the paper's full
protocol (200 cycles × 3 seeds, all quantum lengths, N up to 120).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.ascii_plot import ascii_series_plot
from repro.analysis.export import write_csv
from repro.analysis.tables import format_table


def _maybe_csv(csv: Optional[str], rows) -> None:
    if csv:
        path = write_csv(csv, rows)
        print(f"\n[csv written to {path}]")


def _sweep_cache(no_cache: bool):
    """The experiment commands' result cache (``--no-cache`` disables)."""
    if no_cache:
        return None
    from repro.sweep.cache import SweepCache

    return SweepCache()


def _sweep_workers(workers: Optional[int], full: bool) -> Optional[int]:
    """Worker count policy: parallel by default only for ``--full``
    runs (pool startup dominates the benchmark-sized sweeps)."""
    if workers is not None:
        return workers
    return None if full else 1


def _run(spec, *, full: bool, workers: Optional[int], no_cache: bool):
    """Run an experiment command's sweep under the CLI's pool and
    cache policy."""
    from repro.sweep.scheduler import run_sweep

    return run_sweep(
        spec, workers=_sweep_workers(workers, full), cache=_sweep_cache(no_cache)
    )


def _sweep_footer(outcome) -> None:
    print(f"\n{outcome.footer()}")


def _parse_ints(text: str, flag: str) -> list[int]:
    """Comma-separated integers; empty tokens are skipped."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise SystemExit(f"invalid --{flag} {text!r}: expected integers")


# ---------------------------------------------------------------------------
def cmd_table1(
    *,
    full: bool,
    seed: int,
    csv: Optional[str],
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    from repro.experiments.table1_ops import Table1Result, table1_sweep_spec
    from repro.sweep.scheduler import run_sweep

    # Live host measurement: dispatched through the scheduler for the
    # uniform footer/error handling, but never cached and never pooled
    # (a worker process would time a different address space).
    outcome = run_sweep(table1_sweep_spec(quick=not full), workers=1)
    result = outcome.values[0]
    rows = [
        ["Receive a timer event", f"{result.timer_event_us:.2f}",
         f"{Table1Result.PAPER_TIMER_US:.2f}"],
        ["Measure CPU time of n processes",
         f"{result.measure_fixed_us:.1f} + {result.measure_per_proc_us:.1f}n",
         "1.1 + 17.4n"],
        ["Signal a process", f"{result.signal_us:.2f}",
         f"{Table1Result.PAPER_SIGNAL_US:.2f}"],
    ]
    print(format_table(
        ["operation", "this host (µs)", "paper (µs)"], rows,
        title="Table 1 — Primary ALPS operation times",
    ))
    _maybe_csv(csv, [{"operation": r[0], "host": r[1], "paper": r[2]} for r in rows])
    _sweep_footer(outcome)
    return 0


def cmd_fig4(
    *,
    full: bool,
    seed: int,
    csv: Optional[str],
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    from repro.experiments.accuracy import ACCURACY_EXPERIMENT, run_accuracy_point
    from repro.sweep.scheduler import SweepCell, SweepSpec
    from repro.workloads.shares import DISTRIBUTIONS

    quanta = (10, 15, 20, 25, 30, 35, 40) if full else (10, 20, 30, 40)
    seeds = (seed, seed + 1, seed + 2) if full else (seed,)
    cycles = {5: 200, 10: 200, 20: 200} if full else {5: 120, 10: 70, 20: 40}
    spec = SweepSpec(
        worker=run_accuracy_point,
        cells=[
            SweepCell(
                ACCURACY_EXPERIMENT,
                {"model": model, "n": n, "quantum_ms": q,
                 "cycles": cycles[n], "seeds": seeds},
            )
            for model in DISTRIBUTIONS
            for n in (5, 10, 20)
            for q in quanta
        ],
    )
    outcome = _run(spec, full=full, workers=workers, no_cache=no_cache)
    points = outcome.values
    rows = [
        [p.label, p.quantum_ms, round(p.mean_rms_error_pct, 2)] for p in points
    ]
    print(format_table(
        ["workload", "Q (ms)", "mean RMS error %"], rows,
        title="Figure 4 — accuracy vs quantum length",
    ))
    series: dict[str, tuple[list, list]] = {}
    for p in points:
        xs, ys = series.setdefault(p.label, ([], []))
        xs.append(p.quantum_ms)
        ys.append(p.mean_rms_error_pct)
    print()
    print(ascii_series_plot(series, title="error % vs Q (ms)"))
    _maybe_csv(
        csv,
        [
            {"workload": p.label, "quantum_ms": p.quantum_ms,
             "error_pct": p.mean_rms_error_pct}
            for p in points
        ],
    )
    _sweep_footer(outcome)
    return 0


def cmd_fig5(
    *,
    full: bool,
    seed: int,
    csv: Optional[str],
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    from repro.experiments.overhead import overhead_sweep_spec

    spec = overhead_sweep_spec(cycles=100 if full else 40, seed=seed)
    outcome = _run(spec, full=full, workers=workers, no_cache=no_cache)
    points = outcome.values
    rows = [
        [p.model.value, p.n, p.quantum_ms, round(p.overhead_pct, 3)]
        for p in points
    ]
    print(format_table(
        ["model", "N", "Q (ms)", "overhead %"], rows,
        title="Figure 5 — overhead vs workload",
    ))
    _maybe_csv(
        csv,
        [
            {"model": p.model.value, "n": p.n, "quantum_ms": p.quantum_ms,
             "overhead_pct": p.overhead_pct}
            for p in points
        ],
    )
    _sweep_footer(outcome)
    return 0


def cmd_fig6(
    *,
    full: bool,
    seed: int,
    csv: Optional[str],
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    from repro.experiments.io import IO_EXPERIMENT, run_io_experiment
    from repro.sweep.scheduler import SweepCell, SweepSpec

    spec = SweepSpec(
        worker=run_io_experiment,
        cells=[
            SweepCell(
                IO_EXPERIMENT,
                {"total_cycles": 1200 if full else 800, "warmup_cpu_s": 8.0,
                 "seed": seed},
            )
        ],
    )
    outcome = _run(spec, full=full, workers=workers, no_cache=no_cache)
    result = outcome.values[0]
    steady = result.mean_shares(result.steady_mask)
    active = result.mean_shares(result.active_mask)
    blocked = result.mean_shares(result.blocked_mask)
    rows = [
        ["steady (pre-I/O)", *(round(x, 1) for x in steady)],
        ["B active", *(round(x, 1) for x in active)],
        ["B blocked", *(round(x, 1) for x in blocked)],
    ]
    print(format_table(
        ["phase", "A (1 share) %", "B (2 shares) %", "C (3 shares) %"], rows,
        title=f"Figure 6 — I/O redistribution (I/O starts at cycle "
        f"{result.io_start_cycle})",
    ))
    _maybe_csv(
        csv,
        [
            {"cycle": int(result.cycle_indices[i]),
             "A_pct": result.share_pct[i, 0],
             "B_pct": result.share_pct[i, 1],
             "C_pct": result.share_pct[i, 2]}
            for i in range(len(result.cycle_indices))
        ],
    )
    _sweep_footer(outcome)
    return 0


def cmd_fig7(
    *,
    full: bool,
    seed: int,
    csv: Optional[str],
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    from repro.experiments.multi import MULTI_EXPERIMENT, run_multi_alps_experiment
    from repro.sweep.scheduler import SweepCell, SweepSpec

    spec = SweepSpec(
        worker=run_multi_alps_experiment,
        cells=[SweepCell(MULTI_EXPERIMENT, {"seed": seed})],
    )
    outcome = _run(spec, full=full, workers=workers, no_cache=no_cache)
    result = outcome.values[0]
    table = result.table3()
    rows = [
        [r["share"], r["group"], round(r["target_pct"], 1),
         r["phase1_pct"], r["phase1_relerr"],
         r["phase2_pct"], r["phase2_relerr"],
         r["phase3_pct"], r["phase3_relerr"]]
        for r in table
    ]
    print(format_table(
        ["S", "grp", "target%", "ph1%", "re1", "ph2%", "re2", "ph3%", "re3"],
        rows,
        title="Table 3 — accuracy of multiple ALPSs",
    ))
    errs = [
        r[f"phase{p}_relerr"]
        for r in table for p in (1, 2, 3) if r[f"phase{p}_relerr"] is not None
    ]
    print(f"\naverage relative error: {np.mean(errs):.2f}%  (paper: 0.93%)")
    _maybe_csv(csv, table)
    _sweep_footer(outcome)
    return 0


def cmd_fig8(
    *,
    full: bool,
    seed: int,
    csv: Optional[str],
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    from repro.experiments.scalability import (
        analyze_breakdown,
        scalability_sweep_spec,
    )

    sizes = (5, 10, 20, 30, 40, 50, 60, 80, 100, 120) if full else (
        5, 10, 20, 30, 40, 60, 80
    )
    spec = scalability_sweep_spec(
        sizes=sizes, cycles=40 if full else 25, seed=seed
    )
    outcome = _run(spec, full=full, workers=workers, no_cache=no_cache)
    points = outcome.values
    rows = [
        [p.n, p.quantum_ms, round(p.overhead_pct, 3),
         round(p.mean_rms_error_pct, 1)]
        for p in points
    ]
    print(format_table(
        ["N", "Q (ms)", "overhead %", "RMS error %"], rows,
        title="Figures 8/9 — scalability",
    ))
    print()
    arow = []
    for a in analyze_breakdown(points):
        arow.append(
            [a.quantum_ms, f"{a.fit.slope:.4f}N+{a.fit.intercept:.4f}",
             round(a.predicted_n), a.observed_n]
        )
    print(format_table(
        ["Q (ms)", "U_Q(N)", "predicted N*", "observed N*"], arow,
        title="Section 4.2 — breakdown thresholds "
        "(paper: pred. 39/54/75, obs. 40/60/90)",
    ))
    _maybe_csv(
        csv,
        [
            {"n": p.n, "quantum_ms": p.quantum_ms,
             "overhead_pct": p.overhead_pct,
             "error_pct": p.mean_rms_error_pct}
            for p in points
        ],
    )
    _sweep_footer(outcome)
    return 0


def cmd_sec5(
    *,
    full: bool,
    seed: int,
    csv: Optional[str],
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    from repro.experiments.webserver import (
        WEBSERVER_EXPERIMENT,
        run_webserver_experiment,
    )
    from repro.sweep.scheduler import SweepCell, SweepSpec

    spec = SweepSpec(
        worker=run_webserver_experiment,
        cells=[
            SweepCell(
                WEBSERVER_EXPERIMENT,
                {"warmup_s": 20.0 if full else 15.0,
                 "measure_s": 60.0 if full else 45.0, "seed": seed},
            )
        ],
    )
    outcome = _run(spec, full=full, workers=workers, no_cache=no_cache)
    result = outcome.values[0]
    rows = [
        [i + 1, result.shares[i], round(result.baseline_rps[i], 1),
         round(result.alps_rps[i], 1)]
        for i in range(3)
    ]
    print(format_table(
        ["site", "share", "kernel-only rps", "with ALPS rps"], rows,
        title="Section 5 — shared web server "
        "(paper: {29,30,40} → {18,35,53})",
    ))
    print(f"\nALPS overhead: {result.alps_overhead_pct:.2f}%")
    _maybe_csv(
        csv,
        [
            {"site": i + 1, "share": result.shares[i],
             "baseline_rps": result.baseline_rps[i],
             "alps_rps": result.alps_rps[i]}
            for i in range(3)
        ],
    )
    _sweep_footer(outcome)
    return 0


def cmd_ablation(
    *,
    full: bool,
    seed: int,
    csv: Optional[str],
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    from repro.experiments.overhead import OVERHEAD_EXPERIMENT, run_overhead_point
    from repro.sweep.scheduler import SweepCell, SweepSpec
    from repro.workloads.shares import DISTRIBUTIONS

    combos = [(model, n) for model in DISTRIBUTIONS for n in (5, 10, 20)]
    cycles = 100 if full else 40
    spec = SweepSpec(
        worker=run_overhead_point,
        cells=[
            SweepCell(
                OVERHEAD_EXPERIMENT,
                {"model": model, "n": n, "quantum_ms": 10, "cycles": cycles,
                 "seed": seed, "optimized": optimized},
            )
            for model, n in combos
            for optimized in (True, False)
        ],
    )
    outcome = _run(spec, full=full, workers=workers, no_cache=no_cache)
    points = outcome.values
    rows = []
    data = []
    for (model, n), opt, unopt in zip(combos, points[0::2], points[1::2]):
        factor = unopt.overhead_pct / opt.overhead_pct
        rows.append(
            [f"{model.value}{n}", round(unopt.overhead_pct, 3),
             round(opt.overhead_pct, 3), round(factor, 2)]
        )
        data.append(
            {"workload": f"{model.value}{n}",
             "unoptimized_pct": unopt.overhead_pct,
             "optimized_pct": opt.overhead_pct, "factor": factor}
        )
    print(format_table(
        ["workload", "unoptimized %", "optimized %", "factor"], rows,
        title="Ablation — measurement postponement (paper: 1.8×–5.9×)",
    ))
    _maybe_csv(csv, data)
    _sweep_footer(outcome)
    return 0


def cmd_overload(
    *,
    full: bool,
    seed: int,
    csv: Optional[str],
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    """Past-the-knee degradation: ladder-armed vs control (docs/overload.md)."""
    from repro.experiments.overload import (
        KNEE_N,
        PAST_KNEE_N,
        OverloadComparison,
        overload_sweep_spec,
    )

    sizes = (KNEE_N, 60, PAST_KNEE_N, 120) if full else (KNEE_N, PAST_KNEE_N)
    spec = overload_sweep_spec(
        sizes=sizes, cycles=60 if full else 40, seed=seed
    )
    outcome = _run(spec, full=full, workers=workers, no_cache=no_cache)
    points = outcome.values
    rows = [
        [p.n, "ladder" if p.ladder else "control",
         round(p.mean_rms_error_pct, 1), p.engagements, p.sheds,
         round(p.max_degraded_slip_quanta, 1)]
        for p in points
    ]
    print(format_table(
        ["N", "arm", "RMS error %", "engaged", "sheds", "max slip (q)"],
        rows,
        title=f"Overload — bounded degradation past the knee (knee N={KNEE_N})",
    ))
    print()
    for n in sizes:
        protected = next(p for p in points if p.n == n and p.ladder)
        control = next(p for p in points if p.n == n and not p.ladder)
        ratio = OverloadComparison(protected, control).error_ratio
        print(
            f"N={n:>3}: ladder {protected.mean_rms_error_pct:.1f}% vs "
            f"control {control.mean_rms_error_pct:.1f}%  "
            f"(ratio {ratio:.2f})"
        )
    _maybe_csv(
        csv,
        [
            {"n": p.n, "ladder": p.ladder,
             "error_pct": p.mean_rms_error_pct,
             "engagements": p.engagements, "sheds": p.sheds,
             "readmits": p.readmits,
             "max_degraded_slip_quanta": p.max_degraded_slip_quanta,
             "overhead_pct": p.overhead_pct}
            for p in points
        ],
    )
    _sweep_footer(outcome)
    return 0


def cmd_sharetree(
    *,
    full: bool,
    seed: int,
    csv: Optional[str],
    workers: Optional[int] = None,
    no_cache: bool = False,
    smoke: bool = False,
) -> int:
    """Gunther's ratios-not-guarantees share-tree sweep (docs/share_tree.md)."""
    from repro.experiments.sharetree import (
        SIBLING_COUNTS,
        TENANT_WEIGHT,
        sharetree_sweep_spec,
        throughput_variation,
    )

    if smoke:
        sibling_counts, cell_counts = (1, 4), (1,)
        cycles, horizon_s = 20, 6.0
    elif full:
        sibling_counts, cell_counts = SIBLING_COUNTS, (1, 2)
        cycles, horizon_s = 60, 12.0
    else:
        sibling_counts, cell_counts = SIBLING_COUNTS, (1,)
        cycles, horizon_s = 40, 10.0
    spec = sharetree_sweep_spec(
        sibling_counts=sibling_counts,
        cell_counts=cell_counts,
        cycles=cycles,
        seed=seed,
        horizon_s=horizon_s,
    )
    outcome = _run(spec, full=full, workers=workers, no_cache=no_cache)
    points = outcome.values
    rows = [
        [p.k, p.cells, f"{p.share_ratio:.1f}", f"{p.attained_ratio:.2f}",
         f"{p.ratio_error_pct:.1f}", f"{p.tenant_fraction:.1%}",
         f"{p.tenant_us_per_s:,.0f}"]
        for p in points
    ]
    print(format_table(
        ["siblings k", "cells", "share ratio", "attained ratio",
         "ratio err %", "tenant frac", "tenant µs/s"],
        rows,
        title=(
            "Share tree — shares bound ratios, not guarantees "
            f"(tenant weight {TENANT_WEIGHT} vs k unit siblings)"
        ),
    ))
    single = [p for p in points if p.cells == 1]
    variation = throughput_variation(single)
    worst = max(p.ratio_error_pct for p in single)
    print(
        f"\nratio stays within {worst:.1f}% of the share-bound {TENANT_WEIGHT}:1 "
        f"envelope while absolute tenant throughput varies "
        f"{variation:.1f}x across load points — shares bound ratios, "
        f"never throughput."
    )
    _maybe_csv(
        csv,
        [
            {"k": p.k, "cells": p.cells, "share_ratio": p.share_ratio,
             "attained_ratio": p.attained_ratio,
             "ratio_error_pct": p.ratio_error_pct,
             "tenant_fraction": p.tenant_fraction,
             "tenant_us_per_s": p.tenant_us_per_s,
             "cycles": p.cycles_completed, "wall_us": p.wall_us}
            for p in points
        ],
    )
    _sweep_footer(outcome)
    return 0


def parse_group_spec(spec: str) -> list[tuple[int, int]]:
    """Parse 'SHARExMEMBERS,...' (e.g. '1x2,3x1') to (share, size) pairs."""
    groups: list[tuple[int, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        share_s, _x, size_s = part.partition("x")
        share, size = int(share_s), int(size_s or "1")
        if share <= 0 or size <= 0:
            raise ValueError(f"bad group spec element {part!r}")
        groups.append((share, size))
    if not groups:
        raise ValueError(f"empty group spec {spec!r}")
    return groups


def cmd_live(
    *, shares: str, duration: float, quantum: float, groups: Optional[str] = None
) -> int:
    """Schedule spinners live: one per share, or ``groups`` ('1x2,3x1')
    of spinners sharing one allocation each."""
    from repro.alps.subjects import PidGroupSubject
    from repro.hostos import HostAlps, spawn_spinner

    try:
        spec = parse_group_spec(shares if groups is None else groups)
        if groups is None and any(size != 1 for _, size in spec):
            raise ValueError(shares)
    except ValueError as exc:
        usage = "shares must be positive integers, e.g. --shares 1,2,3"
        print(exc if groups else usage)
        return 2
    procs = [[spawn_spinner() for _ in range(size)] for _, size in spec]
    try:
        alps = HostAlps(
            [
                PidGroupSubject(gid, share, [p.pid for p in group])
                for gid, ((share, _), group) in enumerate(zip(spec, procs))
            ],
            quantum_s=quantum,
        )
        print(
            f"controlling {sum(map(len, procs))} spinners "
            + (f"in {len(spec)} groups " if groups else "")
            + f"for {duration:.0f}s (quantum {quantum * 1000:.0f} ms)..."
        )
        report = alps.run(duration)
        by_sid = report.consumed_by_sid
        total = sum(by_sid.values()) or 1
        total_shares = sum(share for share, _ in spec)
        rows = [
            ([gid, share, size] if groups else [group[0].pid, share])
            + [f"{share / total_shares:.1%}", f"{by_sid[gid] / total:.1%}"]
            for gid, ((share, size), group) in enumerate(zip(spec, procs))
        ]
        head = ["group", "share", "members"] if groups else ["pid", "share"]
        print(format_table(head + ["target", "achieved"], rows))
        print(f"\ncycles: {report.cycles}   "
              f"overhead: {report.overhead_fraction:.2%}")
    finally:
        for group in procs:
            for p in group:
                p.kill()
                p.wait()
    return 0


def cmd_demo(*, shares: str, quantum_ms: float, seconds: float, seed: int) -> int:
    from repro.alps.config import AlpsConfig
    from repro.units import ms, sec
    from repro.workloads.scenarios import build_controlled_workload

    share_list = _parse_ints(shares, "shares")
    if not share_list or any(s <= 0 for s in share_list):
        print("shares must be positive integers, e.g. --shares 1,2,3")
        return 2
    cw = build_controlled_workload(
        share_list, AlpsConfig(quantum_us=ms(quantum_ms)), seed=seed
    )
    cw.engine.run_until(sec(seconds))
    from repro.analysis.summary import summarize_workload

    print(summarize_workload(cw).format())
    return 0


def cmd_perf_report(
    *,
    shares: str,
    quantum_ms: float,
    seconds: float,
    seed: int,
    profile: bool,
    backend: str = "auto",
) -> int:
    """Run a controlled workload with counters attached and report them.

    ``backend="all"`` instead runs the same workload once per kernel
    backend and prints the active fastloop implementation plus a
    side-by-side events/sec comparison table.
    """
    from repro.alps.config import AlpsConfig
    from repro.kernel.kconfig import KernelConfig
    from repro.perf.counters import PerfCounters
    from repro.perf.profiler import profile_call
    from repro.perf.report import collect_workload_counters, render_report
    from repro.units import ms, sec
    from repro.workloads.scenarios import build_controlled_workload

    share_list = _parse_ints(shares, "shares")
    if not share_list or any(s <= 0 for s in share_list):
        print("shares must be positive integers, e.g. --shares 1,2,3")
        return 2
    if backend == "all":
        return _perf_report_all_backends(
            share_list,
            quantum_ms=quantum_ms,
            seconds=seconds,
            seed=seed,
            profile=profile,
        )
    counters = PerfCounters()
    cw = build_controlled_workload(
        share_list,
        AlpsConfig(quantum_us=ms(quantum_ms)),
        seed=seed,
        kernel_config=KernelConfig(
            strict=(backend == "strict"), backend=backend
        ),
        counters=counters,
    )
    if profile:
        profiled = profile_call(cw.engine.run_until, sec(seconds))
        print(profiled.report)
    else:
        cw.engine.run_until(sec(seconds))
    collect_workload_counters(cw, into=counters)
    print(render_report(counters))
    return 0


#: Backend order of the ``perf report --backend all`` comparison table.
_REPORT_BACKENDS = ("strict", "optimized", "batch", "resident")


def _perf_report_all_backends(
    share_list: list,
    *,
    quantum_ms: float,
    seconds: float,
    seed: int,
    profile: bool,
) -> int:
    """Run the workload once per kernel backend; print events/sec
    side-by-side plus which fastloop implementation is active."""
    import time

    from repro.alps.config import AlpsConfig
    from repro.kernel.kconfig import KernelConfig
    from repro.sim.fastloop import ACTIVE_IMPL
    from repro.units import ms, sec
    from repro.workloads.scenarios import build_controlled_workload

    if profile:
        print("[--profile applies to single-backend runs; ignoring]")
    print(f"fastloop impl: {ACTIVE_IMPL}")
    print(f"{'backend':<10} {'events':>8} {'wall_s':>8} {'events/sec':>12}")
    rows = []
    for backend in _REPORT_BACKENDS:
        cw = build_controlled_workload(
            share_list,
            AlpsConfig(quantum_us=ms(quantum_ms)),
            seed=seed,
            kernel_config=KernelConfig(
                strict=(backend == "strict"), backend=backend
            ),
        )
        t0 = time.perf_counter()
        cw.engine.run_until(sec(seconds))
        wall = time.perf_counter() - t0
        events = cw.engine.events_processed
        rows.append((backend, events))
        print(
            f"{backend:<10} {events:>8} {wall:>8.3f} "
            f"{events / wall:>12.1f}"
        )
    counts = {events for _, events in rows}
    if len(counts) == 1:
        print(f"\nall backends agree on {rows[0][1]} events")
    else:
        print("\nWARNING: event counts differ across backends:")
        for backend, events in rows:
            print(f"  {backend}: {events}")
        return 1
    return 0


def cmd_perf_diff(
    *,
    sizes: str,
    seeds: str,
    quantum_ms: float,
    seconds: float,
    backend: str = "optimized",
) -> int:
    """Run the strict-vs-challenger differential sweep and report results.

    ``backend`` selects the challenger compared against the strict
    reference: ``optimized`` (default), ``batch``, or ``resident``.

    On any mismatch the exit status is non-zero and a one-line summary
    goes to *stderr* naming the first mismatching cell — challenger
    backend, share model, workload size, seed — and the offset of the
    first diverging byte within the fingerprint, so CI logs point at
    the offending cell without scraping the full table.
    """
    import sys

    from repro.perf.differential import differential_check
    from repro.units import ms, sec

    size_list = _parse_ints(sizes, "sizes")
    seed_list = _parse_ints(seeds, "seeds")
    if not size_list or not seed_list:
        print("need at least one size and one seed")
        return 2
    results = differential_check(
        sizes=size_list,
        seeds=seed_list,
        quantum_us=ms(quantum_ms),
        horizon_us=sec(seconds),
        backend=backend,
    )
    mismatches = 0
    first_bad = None
    for cell in results:
        status = "ok" if cell.matches else "MISMATCH"
        line = (
            f"{cell.model.value:<8} n={cell.n:<3} seed={cell.seed}  "
            f"{cell.strict_digest}  {status}"
        )
        if not cell.matches:
            mismatches += 1
            if first_bad is None:
                first_bad = cell
            line += f"\n    {cell.detail}"
        print(line)
    print(
        f"\n{len(results)} cells, {mismatches} mismatches"
        + ("" if mismatches else f" — strict and {backend} paths agree")
    )
    if first_bad is not None:
        where = (
            f"{first_bad.diverged_section} byte {first_bad.diverged_byte}"
            if first_bad.diverged_byte >= 0
            else "scalar fields (event count / final clock)"
        )
        print(
            f"perf diff: first mismatch: backend={backend} "
            f"model={first_bad.model.value} n={first_bad.n} "
            f"seed={first_bad.seed}; first divergence: {where}",
            file=sys.stderr,
        )
    return 1 if mismatches else 0


# ---------------------------------------------------------------------------
def _observed_workload(shares: str, quantum_ms: float, seed: int):
    """Build a controlled workload with a fresh Observer attached."""
    from repro.alps.config import AlpsConfig
    from repro.obs import Observer
    from repro.units import ms
    from repro.workloads.scenarios import build_controlled_workload

    share_list = _parse_ints(shares, "shares")
    if not share_list or any(s <= 0 for s in share_list):
        print("shares must be positive integers, e.g. --shares 1,2,3")
        return None
    return build_controlled_workload(
        share_list,
        AlpsConfig(quantum_us=ms(quantum_ms)),
        seed=seed,
        observer=Observer(),
    )


def cmd_top(
    *,
    shares: str,
    quantum_ms: float,
    seed: int,
    frame_ms: float,
    frames: Optional[int],
    interval: float,
    skip_cycles: int,
    tree: bool = False,
    cells: int = 1,
) -> int:
    """Live share-vs-attained view over a simulated workload.

    ``tree=True`` runs the docs chapter's demo share tree
    (:func:`repro.sharetree.demo_tree`) instead of the flat ``shares``
    list and renders the indented per-subtree view.  ``cells > 1``
    shards that tree over a supervised
    :class:`~repro.sharetree.plane.ShardedAlpsPlane` and adds per-cell
    health lines (supervisor state, restarts, epoch, last re-home).
    """
    from repro.obs.top import run_top
    from repro.units import ms

    if cells < 1:
        print(f"repro top: --cells must be >= 1, got {cells}")
        return 2
    if tree and cells > 1:
        from repro.alps.config import AlpsConfig
        from repro.obs import Observer
        from repro.obs.top import run_plane_top
        from repro.sharetree import ShardedAlpsPlane, demo_tree
        from repro.sharetree.resilience import PlaneResilienceConfig

        plane = ShardedAlpsPlane(
            demo_tree(),
            AlpsConfig(quantum_us=ms(quantum_ms)),
            cells=cells,
            seed=seed,
            observer=Observer(),
            resilience=PlaneResilienceConfig(),
        )
        run_plane_top(
            plane,
            frame_us=ms(frame_ms),
            frames=frames,
            interval_s=interval,
        )
        return 0
    if tree:
        from repro.alps.config import AlpsConfig
        from repro.obs import Observer
        from repro.sharetree import demo_tree
        from repro.workloads.scenarios import build_controlled_workload

        demo = demo_tree()
        leaf_weights = [leaf.weight for leaf in demo.leaves()]
        cw = build_controlled_workload(
            leaf_weights,
            AlpsConfig(quantum_us=ms(quantum_ms)),
            seed=seed,
            observer=Observer(),
            sharetree=demo,
        )
    else:
        cw = _observed_workload(shares, quantum_ms, seed)
    if cw is None:
        return 2
    run_top(
        cw,
        frame_us=ms(frame_ms),
        frames=frames,
        interval_s=interval,
        skip_cycles=skip_cycles,
        tree=tree,
    )
    return 0


def cmd_obs_tail(
    *,
    shares: str,
    quantum_ms: float,
    seconds: float,
    seed: int,
    count: int,
    kind: Optional[str],
) -> int:
    """Run an observed workload and print its last events as JSONL."""
    from repro.units import sec

    cw = _observed_workload(shares, quantum_ms, seed)
    if cw is None:
        return 2
    cw.engine.run_until(sec(seconds))
    log = cw.observer.events
    events = log.of_kind(kind) if kind else list(log.tail(len(log)))
    for ev in events[-count:]:
        print(ev.to_json())
    print(
        f"# {log.emitted} events emitted, {log.dropped} dropped "
        f"(ring capacity {log.capacity})"
    )
    return 0


def cmd_obs_export(
    *,
    shares: str,
    quantum_ms: float,
    seconds: float,
    seed: int,
    fmt: str,
    out: Optional[str],
    events_out: Optional[str],
) -> int:
    """Run an observed workload and export its metrics (and events)."""
    from repro.obs.bridge import collect_workload
    from repro.obs.export import (
        events_to_jsonl,
        metrics_to_csv,
        metrics_to_jsonl,
        metrics_to_prometheus,
    )
    from repro.units import sec

    cw = _observed_workload(shares, quantum_ms, seed)
    if cw is None:
        return 2
    cw.engine.run_until(sec(seconds))
    obs = collect_workload(cw)
    # Fold the sweep cache's counters (this process + lifetime totals
    # from the cache root's stats.json) into the exported registry.
    from repro.sweep.cache import attach_sweep_metrics

    attach_sweep_metrics(obs.metrics)
    renderers = {
        "jsonl": metrics_to_jsonl,
        "csv": metrics_to_csv,
        "prometheus": metrics_to_prometheus,
    }
    text = renderers[fmt](obs.metrics)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"[metrics written to {out}]")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    if events_out:
        log = obs.events
        with open(events_out, "w", encoding="utf-8") as fh:
            fh.write(events_to_jsonl(log.tail(len(log))))
        print(
            f"[{len(log)} events written to {events_out}; "
            f"{log.dropped} dropped from ring]"
        )
    return 0


def cmd_obs_snapshot(
    *,
    full: bool,
    seed: int,
    csv: Optional[str],
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    """Canonical observed run: entitlement table + Table 1 cost spans.

    The report's observability section — everything below is produced
    by the ``repro.obs`` exporters from one observed workload, so the
    numbers are exactly reproducible from the seed.
    """
    from repro.obs.bridge import collect_workload
    from repro.obs.export import rows_to_markdown
    from repro.units import sec

    cw = _observed_workload("1,2,4", 10.0, seed)
    assert cw is not None
    cw.engine.run_until(sec(30 if full else 10))
    obs = collect_workload(cw, skip_cycles=5)
    reg = obs.metrics
    rows = []
    for sid in range(len(cw.shares)):
        lbl = {"sid": str(sid)}
        target = reg.get("alps_subject_target_fraction", lbl).value
        got = reg.get("alps_subject_attained_fraction", lbl).value
        rows.append(
            [sid, int(reg.get("alps_subject_share", lbl).value),
             f"{target:.1%}", f"{got:.1%}", f"{got - target:+.2%}"]
        )
    print("Shares 1:2:4, Q = 10 ms, skip 5 warm-up cycles "
          f"(seed {seed}, `python -m repro obs export`):\n")
    print(rows_to_markdown(
        ["sid", "share", "target", "attained", "drift"], rows
    ))
    print(
        f"\nRMS error {reg.get('alps_rms_error_pct').value:.2f}%, "
        f"overhead {reg.get('alps_overhead_fraction').value:.2%}, "
        f"{int(reg.get('alps_cycles_completed').value)} cycles, "
        f"{obs.events.emitted} structured events.\n"
    )
    print("Agent cost breakdown (virtual µs, Table 1 cost model):\n")
    print(obs.spans.format_breakdown())
    _maybe_csv(csv, [
        {"sid": r[0], "share": r[1], "target": r[2],
         "attained": r[3], "drift": r[4]} for r in rows
    ])
    return 0


# ---------------------------------------------------------------------------
def _parse_rates(rates: str) -> tuple[float, ...]:
    try:
        parsed = tuple(float(tok) for tok in rates.split(",") if tok.strip())
    except ValueError:
        raise SystemExit(f"invalid --rates {rates!r}: expected floats")
    if not parsed:
        raise SystemExit("at least one fault rate is required")
    return parsed


def _run_chaos(
    *,
    seed: int,
    episodes: int,
    rates: str,
    shares: Optional[str],
    quantum_ms: float,
    cycles: int,
    suite: str,
    workers: Optional[int],
    no_cache: bool,
):
    from repro.resilience.chaos import run_chaos_campaign

    return run_chaos_campaign(
        seed,
        suite=suite,
        episodes=episodes,
        rates=_parse_rates(rates),
        shares=tuple(_parse_ints(shares, "shares")) if shares else None,
        quantum_ms=quantum_ms,
        cycles=cycles,
        workers=workers,
        cache=_sweep_cache(no_cache),
    )


def _chaos_verdict(report) -> int:
    """Shared exit policy: non-zero with a stderr summary on violation."""
    import sys

    violations = report.violations()
    if not violations:
        return 0
    print(
        f"chaos: {len(violations)} invariant violation(s):", file=sys.stderr
    )
    for ep, name, detail in violations:
        print(f"  episode {ep}: {name}: {detail}", file=sys.stderr)
    return 1


def cmd_chaos_run(
    *,
    seed: int,
    episodes: int,
    rates: str,
    shares: Optional[str],
    quantum_ms: float,
    cycles: int,
    suite: str = "resilience",
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    """``repro chaos run`` — one seeded campaign, table to stdout."""
    report = _run_chaos(
        seed=seed, episodes=episodes, rates=rates, shares=shares,
        quantum_ms=quantum_ms, cycles=cycles, suite=suite, workers=workers,
        no_cache=no_cache,
    )
    print(report.format_table())
    return _chaos_verdict(report)


def cmd_chaos_report(
    *,
    seed: int,
    episodes: int,
    rates: str,
    shares: Optional[str],
    quantum_ms: float,
    cycles: int,
    out: str,
    suite: str = "resilience",
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    """``repro chaos report`` — campaign + full JSON detail to a file."""
    import json

    from repro.sweep.codec import encode

    report = _run_chaos(
        seed=seed, episodes=episodes, rates=rates, shares=shares,
        quantum_ms=quantum_ms, cycles=cycles, suite=suite, workers=workers,
        no_cache=no_cache,
    )
    payload = {
        "campaign_seed": report.campaign_seed,
        "ok": report.ok,
        "episodes": [encode(ep) for ep in report.episodes],
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(report.format_table())
    print(f"\n[chaos report written to {out}]")
    return _chaos_verdict(report)
