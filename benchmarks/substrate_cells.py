"""Shared harness for the substrate throughput cells.

Each *cell* is a fixed, deterministic simulation workload whose
events/second throughput tracks the health of the simulation substrate
(engine + kernel + agent hot paths).  The same cell definitions are
used by:

* ``bench_substrate_micro.py`` — pytest checks comparing current
  throughput against the committed baseline CSV;
* ``refresh_substrate_baseline.py`` — regenerates the baseline CSV
  (see docs/performance.md for when that is legitimate).

Cell workloads must never change without refreshing the baseline: the
event *count* of a cell is asserted exactly, so a schedule-visible
change shows up as a count mismatch rather than a misleading ratio.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import Callable

from repro.alps.config import AlpsConfig
from repro.kernel import make_kernel
from repro.kernel.kconfig import KernelConfig
from repro.kernel.kernel import Kernel
from repro.sim.engine import Engine
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.spinner import spinner_behavior


def _kernel_config(backend: str) -> KernelConfig:
    """Cell kernel config for an explicit backend name.

    ``strict`` is carried alongside so the strict cell measures the
    reference eager kernel rather than strict-flagged dispatch quirks.
    """
    return KernelConfig(strict=(backend == "strict"), backend=backend)


@dataclass(frozen=True)
class CellResult:
    name: str
    events: int
    best_wall_s: float

    @property
    def events_per_sec(self) -> float:
        return self.events / self.best_wall_s


def _engine_chain() -> int:
    eng = Engine(seed=0)

    def chain(event):
        if eng.now < 1_000_000:
            eng.after(10, chain)

    eng.at(0, chain)
    eng.run_until(2_000_000)
    return eng.events_processed


def _kernel_spinners_8() -> int:
    eng = Engine(seed=0)
    k = Kernel(eng, KernelConfig())
    for i in range(8):
        k.spawn(f"p{i}", spinner_behavior())
    eng.run_until(sec(100))
    return eng.events_processed


def _alps_cell(n: int, backend: str = "auto") -> Callable[[], int]:
    def run() -> int:
        kwargs = {}
        if backend != "auto":
            kwargs["kernel_config"] = _kernel_config(backend)
        cw = build_controlled_workload(
            [5] * n, AlpsConfig(quantum_us=ms(10)), seed=0, **kwargs
        )
        cw.engine.run_until(sec(10))
        return cw.engine.events_processed

    return run


def _kernel_decay_cell(n: int, backend: str, seconds: int = 20) -> Callable[[], int]:
    """Kernel-only cell for the per-second schedcpu decay pass.

    No ALPS agent: ``n`` spinners on one CPU.  At the default 20 sim-s
    (20 passes) spawning the ``n`` processes is most of the wall time;
    the pass dominates from a few hundred sim-s on.
    """

    def run() -> int:
        eng = Engine(seed=0)
        kernel = make_kernel(eng, _kernel_config(backend))
        for i in range(n):
            kernel.spawn(f"p{i}", spinner_behavior())
        eng.run_until(sec(seconds))
        return eng.events_processed

    return run


#: name -> zero-arg callable returning the number of events processed.
CELLS: dict[str, Callable[[], int]] = {
    "engine_chain": _engine_chain,
    "kernel_spinners_8": _kernel_spinners_8,
    "alps_cell_5": _alps_cell(5),
    "alps_cell_10": _alps_cell(10),
    "alps_cell_20": _alps_cell(20),
    "alps_cell_40": _alps_cell(40),
    # Backend pairs: the same workload under an explicit kernel backend.
    # Event counts must be identical within a pair (schedule-invisible
    # backends); events/sec goes into the published series.
    "alps_cell_20_strict": _alps_cell(20, "strict"),
    "alps_cell_20_batch": _alps_cell(20, "batch"),
    "alps_cell_20_resident": _alps_cell(20, "resident"),
    "alps_cell_400_strict": _alps_cell(400, "strict"),
    "alps_cell_400_batch": _alps_cell(400, "batch"),
    "alps_cell_400_resident": _alps_cell(400, "resident"),
    # Beyond-paper scale: the regime the resident backend targets
    # (thousands of scheduled entities under one ALPS agent).
    "alps_cell_1000": _alps_cell(1000),
    "kernel_decay_3000_strict": _kernel_decay_cell(3000, "strict"),
    "kernel_decay_3000_batch": _kernel_decay_cell(3000, "batch"),
    "kernel_decay_3000_resident": _kernel_decay_cell(3000, "resident"),
}

#: Kernel backend measured by each cell ("auto" = the library default).
#: Written as the ``backend`` column of the baseline CSV.
CELL_BACKENDS: dict[str, str] = {
    name: (
        "strict"
        if name.endswith("_strict")
        else (
            "batch"
            if name.endswith("_batch")
            else "resident" if name.endswith("_resident") else "auto"
        )
    )
    for name in CELLS
}

#: Backend pairs (strict cell, batch cell) whose event counts must
#: match exactly and whose events/sec ratio is the batch speedup.
BACKEND_PAIRS: dict[str, tuple[str, str]] = {
    "alps_cell_20": ("alps_cell_20_strict", "alps_cell_20_batch"),
    "alps_cell_400": ("alps_cell_400_strict", "alps_cell_400_batch"),
    "kernel_decay_3000": (
        "kernel_decay_3000_strict",
        "kernel_decay_3000_batch",
    ),
}

#: Resident pairs (batch cell, resident cell): same exact-event-count
#: contract; the events/sec ratio is the resident-over-batch speedup.
RESIDENT_PAIRS: dict[str, tuple[str, str]] = {
    "alps_cell_20": ("alps_cell_20_batch", "alps_cell_20_resident"),
    "alps_cell_400": ("alps_cell_400_batch", "alps_cell_400_resident"),
    "kernel_decay_3000": (
        "kernel_decay_3000_batch",
        "kernel_decay_3000_resident",
    ),
}

#: The decay-pass gate pair: ``strict``'s scalar loop against the
#: default kernel's in-place vector pass, at the ledger workload's own
#: 1000 sim-s horizon so the 1000 passes, not the spawns, are what is
#: timed.  Kept out of :data:`CELLS`: the two are compared with each
#: other, not with a baseline row.
DECAY_GATE_CELLS: dict[str, Callable[[], int]] = {
    "strict": _kernel_decay_cell(3000, "strict", seconds=1000),
    "optimized": _kernel_decay_cell(3000, "optimized", seconds=1000),
}

#: The cells forming the Fig. 8/9-style scalability sweep (wall-clock
#: series over process count).
SWEEP_CELLS = ("alps_cell_5", "alps_cell_10", "alps_cell_20", "alps_cell_40")


def run_cell(
    name: str, *, repeats: int = 3, cells: dict[str, Callable[[], int]] = CELLS
) -> CellResult:
    """Run one cell ``repeats`` times; keep the best wall time."""
    fn = cells[name]
    fn()  # warm-up (imports, allocator, caches)
    events = 0
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        events = fn()
        wall = time.perf_counter() - t0
        if wall < best:
            best = wall
    return CellResult(name=name, events=events, best_wall_s=best)


def run_all(*, repeats: int = 3) -> list[CellResult]:
    return [run_cell(name, repeats=repeats) for name in CELLS]


def load_baseline(path) -> dict[str, dict[str, float]]:
    """Parse the committed baseline CSV into {cell: row} (see
    ``refresh_substrate_baseline.py`` for the writer).  The ``backend``
    column is carried through as a string; baselines predating it load
    as ``auto``."""
    out: dict[str, dict[str, float]] = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            out[row["cell"]] = {
                "backend": row.get("backend", "auto"),
                "events": int(row["events"]),
                "events_per_sec": float(row["events_per_sec"]),
                "best_wall_s": float(row["best_wall_s"]),
            }
    return out
