"""The six workloads: closed loop, one process, one thread, no cache.

Each workload is built from ``(seed, sizes)`` into a zero-argument
callable whose call is one timed repeat and returns an :class:`Outcome`:
operations attempted and failed, the simulated statistics, and a digest
that must not move unless the schedule does.

``repro`` is driven only through its documented entry points
(``build_controlled_workload`` + ``Engine.run_until``, ``make_kernel``,
``scalability_sweep``, ``run_webserver_experiment``,
``run_chaos_campaign``).  The one thing read that those entry points do
not return — how many events the engines they build dispatched — comes
from :class:`EngineCensus`, which wraps the public ``Engine.run_until``
/ ``run_until_idle`` in this process and sums their return values.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .spec import Sizes
from .symbols import sym

USEC = 1_000_000  # microseconds per simulated second
QUANTUM_US = 10_000  # Q = 10 ms, the paper's default

TABLE2_SIZES = (5, 10, 20)
FIG8_SIZES = (40, 60, 80, 100, 120)
FIG8_QUANTA_MS = (10, 20, 40)
DECAY_PROCS = 3000
#: Layers ``table2_stacked`` attaches (``faults`` = a null FaultPlan).
STACK = frozenset({"obs", "resilience", "overload", "sharetree", "faults"})


# ---------------------------------------------------------------------------
# Engine census
# ---------------------------------------------------------------------------
class EngineCensus:
    """Sum events and simulated time over every engine run in this process."""

    def __init__(self) -> None:
        self.events = 0
        self.sim_us = 0
        #: The unwrapped run loops (the tracer needs their code objects).
        self.originals: dict[str, Callable] = {}

    def install(self) -> None:
        if self.originals:
            return  # already counting
        engine_cls = sym("Engine")
        for name in ("run_until", "run_until_idle"):
            original = getattr(engine_cls, name)
            self.originals[name] = original
            setattr(engine_cls, name, self._wrap(original))

    def _wrap(self, original: Callable) -> Callable:
        def counted(engine, *args, **kwargs):
            before = engine.now
            processed = original(engine, *args, **kwargs)
            self.events += processed
            self.sim_us += engine.now - before
            return processed

        counted.__name__ = original.__name__
        counted.__doc__ = original.__doc__
        return counted

    def mark(self) -> tuple[int, int]:
        return self.events, self.sim_us

    def since(self, mark: tuple[int, int]) -> tuple[int, int]:
        return self.events - mark[0], self.sim_us - mark[1]


CENSUS = EngineCensus()


# ---------------------------------------------------------------------------
# Outcome
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Chaos invariant verdicts that failed: (suite, episode, invariant,
    #: detail).  Each episode that has one is also one failed operation.
    violations: list[dict] = field(default_factory=list)
    sim_events: int = 0
    sim_final_us: int = 0
    sim_digest: str = ""
    share_err_pct: Optional[float] = None
    alps_overhead_pct: Optional[float] = None
    op_ms: list[float] = field(default_factory=list)
    #: Per-cell digests (Table 2 workloads), for the stacked == bare check.
    cell_digests: dict[str, str] = field(default_factory=dict)

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {why}")


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()


def _json_bytes(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _mean(values: Iterable[float]) -> Optional[float]:
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else None


def serialize_cycle_log(log) -> bytes:
    """Stable bytes of a cycle log (sorted mappings, one line per cycle)."""
    lines = []
    for rec in log:
        lines.append(
            f"{rec.index} {rec.end_time} {rec.quantum_us} "
            f"{sorted(rec.consumed.items())} "
            f"{sorted(rec.blocked_quanta.items())} "
            f"{sorted(rec.shares.items())}"
        )
    return "\n".join(lines).encode()


# ---------------------------------------------------------------------------
# Table 2 cells (shared with the toggle ladder in micro.py)
# ---------------------------------------------------------------------------
def run_table2_cell(shares, seed: int, horizon_us: int, layers=frozenset()):
    """Build and run one controlled workload with ``layers`` attached."""
    extra: dict[str, Any] = {}
    if "obs" in layers:
        extra["observer"] = sym("Observer")()
    if "resilience" in layers:
        extra["journal"] = sym("MemoryJournal")()
        extra["supervisor"] = sym("Supervisor")(
            sym("RestartPolicy")(), quantum_us=QUANTUM_US
        )
    if "overload" in layers:
        extra["overload"] = sym("OverloadGuard")()
    if "sharetree" in layers:
        extra["sharetree"] = sym("ShareTree").flat(shares)
    if "faults" in layers:
        extra["fault_plan"] = sym("FaultPlan")()
    cw = sym("build_controlled_workload")(
        shares, sym("AlpsConfig")(quantum_us=QUANTUM_US), seed=seed, **extra
    )
    cw.engine.run_until(horizon_us)
    return cw


def table2_cells(seed: int, nseeds: int) -> list[tuple[str, list[int], int]]:
    """``(label, shares, seed)`` for the Table 2 matrix x ``nseeds`` seeds."""
    workload_shares = sym("workload_shares")
    return [
        (f"{model.value}-n{n}-s{s}", workload_shares(model, n), s)
        for model in sym("DISTRIBUTIONS")
        for n in TABLE2_SIZES
        for s in range(seed, seed + nseeds)
    ]


def _table2(seed: int, sizes: Sizes, *, nseeds: int, layers) -> Callable[[], Outcome]:
    cells = table2_cells(seed, nseeds)
    horizon_us = sizes.table2_sim_s * USEC
    rms_error = sym("mean_rms_relative_error")

    def run() -> Outcome:
        out = Outcome()
        mark = CENSUS.mark()
        errors, overheads = [], []
        for label, shares, cell_seed in cells:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                cw = run_table2_cell(shares, cell_seed, horizon_us, layers)
            except Exception as exc:  # one failed cell must not hide the rest
                out.fail(label, repr(exc))
                continue
            out.op_ms.append((time.perf_counter() - t0) * 1e3)
            kernel, now = cw.kernel, cw.engine.now
            used = sum(kernel.getrusage(p.pid) for p in cw.workers)
            used += kernel.getrusage(cw.alps_proc.pid)
            if not 0.9 * now <= used <= now:
                out.fail(label, f"CPU conservation: {used} us used of {now}")
            log = cw.agent.cycle_log
            errors.append(rms_error(log, skip=1))
            overheads.append(100.0 * cw.overhead_fraction())
            out.cell_digests[label] = _sha(
                f"{cw.engine.events_processed}|{now}".encode(),
                serialize_cycle_log(log),
            )
        out.sim_events, out.sim_final_us = CENSUS.since(mark)
        out.share_err_pct = _mean(errors)
        out.alps_overhead_pct = _mean(overheads)
        out.sim_digest = _sha(_json_bytes(out.cell_digests))
        return out

    return run


def verify_stacked(seed: int, sizes: Sizes, stacked: Outcome) -> list[str]:
    """The stacked cells must reproduce the bare cells' schedule exactly."""
    bare = _table2(seed, sizes, nseeds=1, layers=frozenset())()
    return [
        f"{label}: stacked digest differs from bare"
        for label, digest in bare.cell_digests.items()
        if stacked.cell_digests.get(label) != digest
    ]


# ---------------------------------------------------------------------------
# fig8_scale
# ---------------------------------------------------------------------------
def _fig8_scale(seed: int, sizes: Sizes) -> Callable[[], Outcome]:
    sweep = sym("scalability_sweep")
    ncells = len(FIG8_SIZES) * len(FIG8_QUANTA_MS)

    def run() -> Outcome:
        out = Outcome(attempted=ncells)
        mark = CENSUS.mark()
        try:
            points = sweep(
                sizes=FIG8_SIZES, quanta_ms=FIG8_QUANTA_MS,
                cycles=sizes.fig8_cycles, seed=seed, workers=1, cache=None,
            )
        except Exception as exc:  # the sweep aborts as a whole
            out.failed = ncells
            out.failures.append(f"scalability_sweep: {exc!r}")
            points = []
        out.sim_events, out.sim_final_us = CENSUS.since(mark)
        payload = [dataclasses.asdict(p) for p in points]
        for p in payload:
            if p["cycles_completed"] < 1 or not p["overhead_pct"] > 0:
                out.fail(f"n{p['n']}-q{p['quantum_ms']}", f"empty cell {p}")
        out.share_err_pct = _mean(p["mean_rms_error_pct"] for p in payload)
        out.alps_overhead_pct = _mean(p["overhead_pct"] for p in payload)
        out.sim_digest = _sha(
            f"{out.sim_events}|{out.sim_final_us}".encode(), _json_bytes(payload)
        )
        return out

    return run


# ---------------------------------------------------------------------------
# kernel_decay_3000
# ---------------------------------------------------------------------------
def run_decay(nprocs: int, horizon_us: int, backend: Optional[str] = None):
    """``nprocs`` spinners on a bare kernel; returns ``(engine, kernel, pids)``."""
    engine = sym("Engine")(seed=0)
    if backend is None:
        kernel = sym("make_kernel")(engine)
    else:
        kernel = sym("make_kernel")(
            engine,
            sym("KernelConfig")(strict=(backend == "strict"), backend=backend),
        )
    spinner = sym("spinner_behavior")
    pids = [kernel.spawn(f"p{i}", spinner()).pid for i in range(nprocs)]
    engine.run_until(horizon_us)
    return engine, kernel, pids


def _kernel_decay_3000(seed: int, sizes: Sizes) -> Callable[[], Outcome]:
    # All-spinner input: the seed changes nothing the kernel can observe,
    # so every seed is the same fixed cell (and must give one digest).
    horizon_us = sizes.decay_sim_s * USEC

    def run() -> Outcome:
        out = Outcome(attempted=1)
        mark = CENSUS.mark()
        try:
            engine, kernel, pids = run_decay(DECAY_PROCS, horizon_us)
        except Exception as exc:
            out.fail("decay", repr(exc))
            return out
        out.sim_events, out.sim_final_us = CENSUS.since(mark)
        cpu = [kernel.getrusage(pid) for pid in pids]
        used, now = sum(cpu), engine.now
        if not 0.99 * now <= used <= now:
            out.fail("decay", f"CPU conservation: {used} us used of {now}")
        # Equal priority, round robin: nobody may be more than two slices
        # (plus a tick) ahead of anybody else.
        cfg = kernel.cfg
        if max(cpu) - min(cpu) > 2 * cfg.slice_us + cfg.tick_us:
            out.fail("decay", f"unfair: cpu spread {max(cpu) - min(cpu)} us")
        out.sim_digest = _sha(
            f"{out.sim_events}|{now}".encode(), _json_bytes(cpu)
        )
        return out

    return run


# ---------------------------------------------------------------------------
# web_sec5
# ---------------------------------------------------------------------------
def _web_sec5(seed: int, sizes: Sizes) -> Callable[[], Outcome]:
    experiment = sym("run_webserver_experiment")

    def run() -> Outcome:
        out = Outcome(attempted=1)
        mark = CENSUS.mark()
        try:
            result = experiment(
                warmup_s=sizes.web_warmup_s, measure_s=sizes.web_measure_s,
                seed=seed,
            )
        except Exception as exc:
            out.fail("web", repr(exc))
            return out
        out.sim_events, out.sim_final_us = CENSUS.since(mark)
        payload = dataclasses.asdict(result)
        total_share = sum(result.shares)
        if min(result.alps_rps) <= 0:
            out.fail("web", f"a site served nothing: {result.alps_rps}")
        else:
            out.share_err_pct = 100.0 * max(
                abs(frac - share / total_share) / (share / total_share)
                for frac, share in zip(result.alps_fractions, result.shares)
            )
        out.alps_overhead_pct = result.alps_overhead_pct
        out.sim_digest = _sha(
            f"{out.sim_events}|{out.sim_final_us}".encode(), _json_bytes(payload)
        )
        return out

    return run


# ---------------------------------------------------------------------------
# chaos_campaign
# ---------------------------------------------------------------------------
def _chaos_campaign(seed: int, sizes: Sizes) -> Callable[[], Outcome]:
    campaign = sym("run_chaos_campaign")
    suites = ("resilience", "overload", "plane")
    episodes = sizes.chaos_episodes
    if sizes.chaos_seed_pool:
        seed = sizes.chaos_seed_pool[seed % len(sizes.chaos_seed_pool)]

    def run() -> Outcome:
        out = Outcome()
        mark = CENSUS.mark()
        payloads, errors = [], []
        for suite in suites:
            out.attempted += episodes
            try:
                report = campaign(
                    seed, suite=suite, episodes=episodes, workers=1, cache=None
                )
            except Exception as exc:  # the campaign aborts as a whole
                out.failed += episodes
                out.failures.append(f"{suite}: {exc!r}")
                continue
            for index, episode in enumerate(report.episodes):
                payloads.append(dataclasses.asdict(episode))
                errors.append(episode.error_pct)
                broken = [v for v in episode.invariants if not v.ok]
                for verdict in broken:
                    out.violations.append({
                        "suite": suite, "episode": index,
                        "invariant": verdict.name, "detail": verdict.detail,
                    })
                if broken:
                    out.fail(
                        f"{suite} ep{index}",
                        "invariant " + ", ".join(v.name for v in broken),
                    )
        out.sim_events, out.sim_final_us = CENSUS.since(mark)
        out.share_err_pct = _mean(errors)
        out.sim_digest = _sha(
            f"{out.sim_events}|{out.sim_final_us}".encode(), _json_bytes(payloads)
        )
        return out

    return run


BUILDERS: dict[str, Callable[[int, Sizes], Callable[[], Outcome]]] = {
    "table2_bare": functools.partial(_table2, nseeds=3, layers=frozenset()),
    "table2_stacked": functools.partial(_table2, nseeds=1, layers=STACK),
    "fig8_scale": _fig8_scale,
    "kernel_decay_3000": _kernel_decay_3000,
    "web_sec5": _web_sec5,
    "chaos_campaign": _chaos_campaign,
}


def build(name: str, seed: int, sizes: Sizes) -> Callable[[], Outcome]:
    """Generate ``name``'s inputs from ``seed``; return its run callable."""
    return BUILDERS[name](seed, sizes)
