"""CLI command implementations.

:func:`cmd_run` reproduces any paper artifact from its row in
:mod:`repro.experiments.registry`; the other ``cmd_*`` are the live,
demo, perf, top, obs and chaos tools.
"""

from __future__ import annotations

from typing import Optional

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


def _parse_ints(text: str, flag: str) -> list[int]:
    """Comma-separated integers; empty tokens are skipped."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise SystemExit(f"invalid --{flag} {text!r}: expected integers")


# ---------------------------------------------------------------------------
def cmd_run(
    row,
    *,
    full: bool,
    seed: int,
    smoke: bool,
    csv: Optional[str],
    workers: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    """``repro run <id>``: sweep one registry row, print its table and
    optionally write its CSV."""
    from repro.experiments.registry import run_experiment

    outcome = run_experiment(
        row, full=full, seed=seed, smoke=smoke, workers=workers,
        no_cache=no_cache,
    )
    print(row.render(outcome.values))
    _maybe_csv(csv, row.csv_rows(outcome.values))
    print(f"\n{outcome.footer()}")
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
    events = log.of_kind(kind)[-count:] if kind else log.tail(count)
    for ev in events:
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
