"""Substrate microbenchmarks: engine and kernel throughput.

Not a paper artifact — these keep an eye on the simulator itself
(events/second, ALPS steps/second), which bounds how large the paper's
sweeps can run.  Regressions here make the figure benchmarks slow.

Two layers:

* pytest-benchmark timings of individual hot paths (below), for
  profiling and local comparison;
* a throughput *series* over the fixed substrate cells, gated against
  the committed baseline CSV.  Event counts must match the baseline
  exactly (any optimization must stay schedule-invisible), and
  events/sec must clear ``REPRO_PERF_MIN_RATIO`` × baseline
  (default 0.3 — a loose floor that survives noisy shared runners).
  ``alps_cell_20`` additionally carries the fast-path acceptance
  target: ``REPRO_PERF_TARGET_RATIO`` × baseline (default 2.0).

The backend cells (``*_strict`` / ``*_batch`` / ``*_resident``) extend
the series with the explicit kernel backends: event counts must match
within each pair.  The decay-pass gate (the default kernel's vector
``schedcpu`` pass over ``strict``'s scalar loop, ``DECAY_MIN_SPEEDUP``)
is always armed: both legs run back-to-back in one process, so the
ratio does not depend on the machine.
"""

import csv
import os
from pathlib import Path

import pytest

from benchmarks.conftest import emit
from benchmarks.substrate_cells import (
    BACKEND_PAIRS,
    DECAY_GATE_CELLS,
    RESIDENT_PAIRS,
    SWEEP_CELLS,
    load_baseline,
    run_all,
    run_cell,
)
from repro.alps.algorithm import AlpsCore, Measurement
from repro.alps.config import AlpsConfig
from repro.kernel.kconfig import KernelConfig
from repro.kernel.kernel import Kernel
from repro.sim.engine import Engine
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.spinner import spinner_behavior

BASELINE_CSV = Path(__file__).parent / "results" / "substrate_baseline.csv"

#: Loose regression floor: current/baseline events-per-sec must exceed
#: this on every cell.  Overridable for slow CI runners.
MIN_RATIO = float(os.environ.get("REPRO_PERF_MIN_RATIO", "0.3"))
#: Fast-path acceptance target on the flagship cell (alps_cell_20).
TARGET_RATIO = float(os.environ.get("REPRO_PERF_TARGET_RATIO", "2.0"))


def test_bench_engine_event_dispatch(benchmark):
    """Raw event calendar throughput (schedule + dispatch)."""

    def run():
        eng = Engine(seed=0)

        def chain(event):
            if eng.now < 100_000:
                eng.after(10, chain)

        eng.at(0, chain)
        eng.run_until(200_000)
        return eng.events_processed

    events = benchmark(run)
    assert events > 10_000


def test_bench_kernel_spinners(benchmark):
    """Simulated seconds of an 8-spinner kernel per wall call."""

    def run():
        eng = Engine(seed=0)
        k = Kernel(eng, KernelConfig())
        for i in range(8):
            k.spawn(f"p{i}", spinner_behavior())
        eng.run_until(sec(10))
        return eng.events_processed

    benchmark(run)


def test_bench_alps_controlled_simulation(benchmark):
    """End-to-end ALPS over 10 processes, 10 simulated seconds."""

    def run():
        cw = build_controlled_workload(
            [5] * 10, AlpsConfig(quantum_us=ms(10)), seed=0
        )
        cw.engine.run_until(sec(10))
        return len(cw.agent.cycle_log)

    cycles = benchmark(run)
    assert cycles > 5


def test_bench_alps_core_quantum(benchmark):
    """Pure algorithm step cost (begin + complete for 20 subjects)."""
    core = AlpsCore({i: 5 for i in range(20)}, ms(10), optimized=False)
    core.begin_quantum()
    core.complete_quantum({})

    def step():
        due = core.begin_quantum()
        core.complete_quantum(
            {sid: Measurement(consumed_us=500) for sid in due}
        )

    benchmark(step)


# ---------------------------------------------------------------------------
# Throughput series vs the committed baseline
# ---------------------------------------------------------------------------


def test_substrate_throughput_series(results_dir):
    """Run every cell, gate against the baseline, and publish the series.

    The exact-event-count assertion is the differential backstop: a
    fast path that changes the schedule shifts the event count and
    fails loudly here even before the trace-level golden tests run.
    """
    baseline = load_baseline(BASELINE_CSV)
    results = run_all(repeats=3)
    rows = []
    lines = [
        f"{'cell':<20} {'events':>8} {'ev/s':>12} {'base ev/s':>12} {'ratio':>7}"
    ]
    for r in results:
        base = baseline[r.name]
        assert r.events == base["events"], (
            f"{r.name}: event count {r.events} != baseline {base['events']} "
            "— the substrate changed the schedule (or the cell workload "
            "changed without a baseline refresh)"
        )
        ratio = r.events_per_sec / base["events_per_sec"]
        rows.append(
            (r.name, r.events, r.events_per_sec, base["events_per_sec"], ratio)
        )
        lines.append(
            f"{r.name:<20} {r.events:>8} {r.events_per_sec:>12,.1f} "
            f"{base['events_per_sec']:>12,.1f} {ratio:>6.2f}x"
        )
        assert ratio >= MIN_RATIO, (
            f"{r.name}: throughput fell to {ratio:.2f}x of baseline "
            f"(floor {MIN_RATIO}x)"
        )
    emit("Substrate throughput series (vs committed baseline)", "\n".join(lines))
    out = results_dir / "substrate_series.csv"
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["cell", "events", "events_per_sec", "baseline_events_per_sec", "ratio"]
        )
        for name, events, evs, base_evs, ratio in rows:
            writer.writerow(
                [name, events, f"{evs:.1f}", f"{base_evs:.1f}", f"{ratio:.3f}"]
            )


def test_alps_cell_20_meets_speedup_target():
    """Fast-path acceptance: alps_cell_20 ≥ TARGET_RATIO × baseline."""
    baseline = load_baseline(BASELINE_CSV)["alps_cell_20"]
    result = run_cell("alps_cell_20", repeats=5)
    assert result.events == baseline["events"]
    ratio = result.events_per_sec / baseline["events_per_sec"]
    emit(
        "alps_cell_20 speedup",
        f"{result.events_per_sec:,.1f} ev/s vs baseline "
        f"{baseline['events_per_sec']:,.1f} ev/s = {ratio:.2f}x "
        f"(target {TARGET_RATIO}x)",
    )
    assert ratio >= TARGET_RATIO, (
        f"alps_cell_20 at {ratio:.2f}x baseline, below the "
        f"{TARGET_RATIO}x fast-path target"
    )


@pytest.mark.parametrize("pair", sorted(BACKEND_PAIRS))
def test_backend_pair_event_counts_match(pair):
    """Strict and batch cells of a pair must process identical event
    counts (the schedule-invisibility contract, at benchmark scale)."""
    strict_cell, batch_cell = BACKEND_PAIRS[pair]
    strict = run_cell(strict_cell, repeats=1)
    batch = run_cell(batch_cell, repeats=1)
    assert batch.events == strict.events, (
        f"{pair}: batch processed {batch.events} events vs strict "
        f"{strict.events} — the batch backend changed the schedule"
    )


@pytest.mark.parametrize("pair", sorted(RESIDENT_PAIRS))
def test_resident_pair_event_counts_match(pair):
    """Batch and resident cells of a pair must process identical event
    counts (the resident backend is schedule-invisible too)."""
    batch_cell, resident_cell = RESIDENT_PAIRS[pair]
    batch = run_cell(batch_cell, repeats=1)
    resident = run_cell(resident_cell, repeats=1)
    assert resident.events == batch.events, (
        f"{pair}: resident processed {resident.events} events vs batch "
        f"{batch.events} — the resident backend changed the schedule"
    )


#: Floor of the decay-pass gate below: ~3.9x measured with the pass
#: entering Python only for rows whose priority moved, 2.4x when it
#: still visited every decayed row.
DECAY_MIN_SPEEDUP = 3.0


def test_vector_decay_pass_meets_speedup_gate():
    """Default kernel ≥ floor × ``strict`` on 3000 spinners × 1000 sim-s.

    The two differ only in the per-second pass — one in-place vector
    sweep of the process-table columns against the scalar oracle loop —
    so a ratio near 1 means the pass fell back to row-by-row Python,
    and one near 2.4 that its per-row tail is back.  Both run
    back-to-back in this process, which keeps the ratio
    machine-portable, and must process the same events.
    """
    strict = run_cell("strict", repeats=3, cells=DECAY_GATE_CELLS)
    optimized = run_cell("optimized", repeats=3, cells=DECAY_GATE_CELLS)
    assert optimized.events == strict.events
    speedup = optimized.events_per_sec / strict.events_per_sec
    emit(
        "Decay-pass gate (3000 spinners x 1000 sim-s)",
        f"optimized {optimized.events_per_sec:,.1f} ev/s vs strict "
        f"{strict.events_per_sec:,.1f} ev/s = {speedup:.2f}x "
        f"(floor {DECAY_MIN_SPEEDUP:.1f}x)",
    )
    assert speedup >= DECAY_MIN_SPEEDUP, (
        f"vector schedcpu pass at {speedup:.2f}x the strict loop, "
        f"below the {DECAY_MIN_SPEEDUP:.1f}x gate"
    )


def test_sweep_wall_clock_series(results_dir):
    """Wall-clock growth across the ALPS cell sizes (5..40 workers).

    Publishes the series the scalability sweeps care about: how fast a
    fixed 10-simulated-second run slows down as the controlled group
    grows.
    """
    series = [run_cell(name, repeats=2) for name in SWEEP_CELLS]
    lines = [f"{'cell':<20} {'wall s':>10} {'events':>8}"]
    for r in series:
        assert r.best_wall_s > 0.0
        lines.append(f"{r.name:<20} {r.best_wall_s:>10.4f} {r.events:>8}")
    emit("ALPS cell wall-clock sweep", "\n".join(lines))
    out = results_dir / "substrate_sweep.csv"
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["cell", "best_wall_s", "events"])
        for r in series:
            writer.writerow([r.name, f"{r.best_wall_s:.6f}", r.events])


# ---------------------------------------------------------------------------
# Observability no-op overhead gate
# ---------------------------------------------------------------------------

#: Ceiling on the cost of carrying a *disabled* observer through the
#: alps_cell_20 hot path (the docs/observability.md contract: off-path
#: instrumentation is one attribute read).
OBS_MAX_OVERHEAD = 0.05


def test_disabled_observer_overhead_is_negligible():
    """alps_cell_20 with a disabled observer within OBS_MAX_OVERHEAD."""
    import gc
    import time

    from repro.obs import Observer

    def run(observer):
        cw = build_controlled_workload(
            [5] * 20, AlpsConfig(quantum_us=ms(10)), seed=0, observer=observer
        )
        cw.engine.run_until(sec(10))
        return cw.engine.events_processed

    def timed(observer):
        gc.collect()  # neither arm pays for the other's garbage
        t0 = time.perf_counter()
        events = run(observer)
        return events, time.perf_counter() - t0

    timed(None)  # warm-up
    # The arms alternate run by run, so drift over the measurement (a
    # neighbour's load, frequency scaling) reaches both alike instead
    # of reading as overhead; each arm keeps its best of nine.
    base = observed = float("inf")
    base_events = obs_events = 0
    for _ in range(9):
        base_events, wall = timed(None)
        base = min(base, wall)
        obs_events, wall = timed(Observer.disabled())
        observed = min(observed, wall)
    assert obs_events == base_events, (
        "observer changed the schedule: "
        f"{obs_events} events vs {base_events} without"
    )
    overhead = observed / base - 1.0
    emit(
        "Disabled-observer overhead (alps_cell_20)",
        f"bare {base:.4f}s vs observed {observed:.4f}s = "
        f"{overhead:+.2%} (ceiling {OBS_MAX_OVERHEAD:.0%})",
    )
    assert overhead <= OBS_MAX_OVERHEAD, (
        f"disabled observer costs {overhead:+.2%} on alps_cell_20, "
        f"above the {OBS_MAX_OVERHEAD:.0%} no-op ceiling"
    )
