"""Untraced direct calls and counts: one number per layer mechanism.

Every group below measures one layer through its public surface, from
outside, with tracing off.  Timings are at reference speed (see
``refclock``) and best-of-``REPEATS`` (these are sub-second cells; the
minimum is the steadiest estimator on a shared box).  Counts come from fixed reference cells — the seed-s n = 20 Table 2
cells, one chaos probe episode per suite, one faulted run — and repeat
exactly for a seed.

A group whose target no longer resolves yields ``None`` for its metrics
plus a ``skipped`` note; it never raises.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from typing import Any, Callable, Optional

from . import refclock
from .spec import DECLARED_BACKENDS, LADDER, MICRO_METRICS
from .symbols import MissingTarget, sym
from .workloads import QUANTUM_US, USEC, run_decay, run_table2_cell

REPEATS = 3
N20_SIM_S = 10

Values = dict[str, Optional[float]]


def seconds(fn: Callable[[], Any]) -> tuple[float, Any]:
    """Wall seconds of one call at reference speed, and its result."""
    timing = refclock.timed(fn, rounds=1)
    return timing.seconds, timing.result


def best_of(fn: Callable[[], Any], repeats: int = REPEATS) -> tuple[float, Any]:
    """Minimum :func:`seconds` of ``repeats`` calls, and the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        wall, result = seconds(fn)
        best = min(best, wall)
    return best, result


def _per_call_us(fn: Callable[[], Any], calls: int) -> float:
    def loop() -> None:
        for _ in range(calls):
            fn()

    return best_of(loop)[0] / calls * 1e6


# ---------------------------------------------------------------------------
# sim / kernel
# ---------------------------------------------------------------------------
def sim_dispatch(seed: int) -> Values:
    engine_cls = sym("Engine")

    def chain() -> int:
        engine = engine_cls(seed=0)

        def step(event) -> None:
            if engine.now < USEC:
                engine.after(10, step)

        engine.at(0, step)
        return engine.run_until(2 * USEC)

    wall, events = best_of(chain)
    return {"sim.dispatch_us_per_event": wall / events * 1e6}


def kernel_spin8(seed: int) -> Values:
    def run() -> int:
        return run_decay(8, 100 * USEC)[0].events_processed

    wall, events = best_of(run)
    return {"kernel.spin8_us_per_event": wall / events * 1e6}


def backend_names() -> list[str]:
    """Declared backends first, then any new ones ``repro`` registers."""
    live = sorted(sym("KERNEL_BACKENDS"))
    return list(DECLARED_BACKENDS) + [b for b in live if b not in DECLARED_BACKENDS]


def kernel_backend(backend: str) -> Callable[[int], Values]:
    def measure(seed: int) -> Values:
        if backend not in sym("KERNEL_BACKENDS"):
            raise MissingTarget(f"kernel backend {backend!r} is not registered")
        config = sym("KernelConfig")(strict=(backend == "strict"), backend=backend)
        build = sym("build_controlled_workload")
        alps_config = sym("AlpsConfig")(quantum_us=QUANTUM_US)

        def n20() -> int:
            cw = build([5] * 20, alps_config, seed=0, kernel_config=config)
            return cw.engine.run_until(N20_SIM_S * USEC)

        def decay() -> int:
            return run_decay(3000, 20 * USEC, backend)[0].events_processed

        n20_wall, n20_events = best_of(n20)
        decay_wall, decay_events = best_of(decay, 2)
        return {
            f"kernel.{backend}.n20_us_per_event": n20_wall / n20_events * 1e6,
            f"kernel.{backend}.decay3000_us_per_event":
                decay_wall / decay_events * 1e6,
        }

    return measure


def kernel_horizon_scaling(seed: int) -> Values:
    # The per-event cost of the default backend starts rising after about
    # three round-robin rounds (n x 100 ms slice each).  1000 spinners get
    # there in 300 sim-s, a third of what 3000 need, for a third of the
    # price; same mechanism.
    engine = sym("Engine")(seed=0)
    kernel = sym("make_kernel")(engine)
    spinner = sym("spinner_behavior")
    for i in range(1000):
        kernel.spawn(f"p{i}", spinner())

    def window(start_s: int, end_s: int) -> float:
        engine.run_until(start_s * USEC)
        wall, events = seconds(lambda: engine.run_until(end_s * USEC))
        return wall / events

    early = window(100, 200)
    late = window(500, 600)
    return {"kernel.horizon_scaling_x": late / early}


# ---------------------------------------------------------------------------
# reference n = 20 cells: counts and the toggle ladder
# ---------------------------------------------------------------------------
def reference_cells(seed: int) -> Values:
    workload_shares = sym("workload_shares")
    cells = [workload_shares(model, 20) for model in sym("DISTRIBUTIONS")]
    horizon_us = N20_SIM_S * USEC

    def run(layers: frozenset) -> list:
        return [run_table2_cell(shares, seed, horizon_us, layers) for shares in cells]

    configs = [frozenset()] + [frozenset({layer}) for layer, _name in LADDER]
    walls: list[list[float]] = [[] for _ in configs]
    last: list[list] = [[] for _ in configs]
    # Interleave the configurations and difference them round by round, so
    # a slow spell on the box cancels instead of landing on one layer.
    for _ in range(REPEATS):
        for i, layers in enumerate(configs):
            last[i] = []  # free the previous round's cells before timing
            wall, last[i] = seconds(lambda: run(layers))
            walls[i].append(wall)

    bare = last[0]
    events = sum(cw.engine.events_processed for cw in bare)
    out: Values = {}
    for (layer, name), wall, cws in zip(LADDER, walls[1:], last[1:]):
        if sum(cw.engine.events_processed for cw in cws) != events:
            raise RuntimeError(f"attaching {layer} changed the event count")
        extra = statistics.median(on - off for on, off in zip(wall, walls[0]))
        out[name] = extra / events * 1e6

    perf: dict[str, int] = {}
    for cw in bare:
        for key, value in cw.kernel.perf_snapshot().items():
            perf[key] = perf.get(key, 0) + value
    for key in ("context_switches", "schedcpu_passes", "lazy_materializations"):
        out[f"kernel.{key}"] = perf.get(f"kernel.{key}")

    agents = [cw.agent for cw in bare]
    for key in ("invocations", "reads", "signals_sent", "missed_boundaries"):
        out[f"alps.agent.{key}"] = sum(getattr(a, key) for a in agents)
    possible = sum(a.invocations * len(cw.workers) for a, cw in zip(agents, bare))
    out["alps.agent.reads_per_quantum"] = out["alps.agent.reads"] / possible

    observed = last[1]
    out["obs.events_emitted"] = sum(cw.observer.events.emitted for cw in observed)
    return out


# ---------------------------------------------------------------------------
# kapi / algorithm / obs / journal / sharetree
# ---------------------------------------------------------------------------
def kapi_calls(seed: int) -> Values:
    cw = run_table2_cell([5] * 20, seed, USEC)
    kapi = cw.kernel.kapi
    pids = [p.pid for p in cw.workers]
    stop, cont = sym("SIGSTOP"), sym("SIGCONT")

    def measure_all() -> None:
        for pid in pids:
            kapi.getrusage(pid)
            kapi.is_blocked(pid)

    def signal_pair() -> None:
        kapi.kill(pids[0], stop)
        kapi.kill(pids[0], cont)

    return {
        "kapi.measure_us_per_pid": _per_call_us(measure_all, 500) / len(pids),
        "kapi.signal_us": _per_call_us(signal_pair, 2000) / 2,
    }


def algorithm_quantum(seed: int) -> Values:
    core_cls = sym("AlpsCore")

    def per_quantum_us(n: int) -> float:
        core = core_cls({sid: 5 for sid in range(n)}, QUANTUM_US)
        share_of_quantum = QUANTUM_US // n

        def quantum() -> None:
            due = core.begin_quantum()
            core.complete_quantum({sid: (share_of_quantum, False) for sid in due})

        return _per_call_us(quantum, 2000)

    return {
        "alps.algorithm.quantum_us_n20": per_quantum_us(20),
        "alps.algorithm.quantum_us_n120": per_quantum_us(120),
    }


def obs_emit(seed: int) -> Values:
    observer = sym("Observer")()

    def emit() -> None:
        observer.emit(1, "ledger.probe", pid=1, value=2)

    return {"obs.emit_us": _per_call_us(emit, 20000)}


def journal_calls(seed: int) -> Values:
    cw = run_table2_cell([5] * 20, seed, USEC)
    snapshot = cw.agent.snapshot_state(cw.engine.now)
    journal_cls = sym("MemoryJournal")
    journal = journal_cls()

    append_us = _per_call_us(lambda: journal.append(snapshot), 500)
    small = journal_cls()
    for _ in range(256):
        small.append(snapshot)
    recover_us = _per_call_us(small.recover, 5)
    return {
        "resilience.journal_append_us": append_us,
        "resilience.journal_recover_us": recover_us,
        "resilience.journal_bytes_per_append": len(small) / 256,
    }


def sharetree_calls(seed: int) -> Values:
    tree = sym("ShareTree")()
    sid = 0
    for g in range(10):
        tree.group(f"g{g}", g + 1)
        for leaf in range(100):
            tree.leaf(f"g{g}/p{leaf}", sid=sid, weight=1 + leaf % 7)
            sid += 1
    return {
        "sharetree.effective_shares_us_1000":
            _per_call_us(tree.effective_shares, 3),
    }


# ---------------------------------------------------------------------------
# probes: counts only the chaos and fault paths produce
# ---------------------------------------------------------------------------
def chaos_probe(seed: int) -> Values:
    # One-episode campaigns, so each suite runs with its own shares and
    # bounds (a bare run_chaos_episode uses the resilience defaults).
    campaign = sym("run_chaos_campaign")
    episodes = [
        campaign(seed, suite=suite, episodes=1, workers=1, cache=None).episodes[0]
        for suite in ("resilience", "overload", "plane")
    ]
    return {
        "resilience.restarts": sum(e.restarts for e in episodes),
        "overload.shed_total": sum(e.sheds for e in episodes),
        "sharetree.migrations": sum(e.leaf_migrations for e in episodes),
    }


def fault_probe(seed: int) -> Values:
    horizon_us = 20 * USEC
    plan = sym("default_fault_plan")(0.1, seed=seed, horizon_us=horizon_us)
    cw = sym("build_controlled_workload")(
        [1, 2, 3, 4], sym("AlpsConfig")(quantum_us=QUANTUM_US),
        seed=seed, fault_plan=plan,
    )
    cw.engine.run_until(horizon_us)
    return {"faults.injected": len(cw.injector.trace)}


# ---------------------------------------------------------------------------
# sweep / cli
# ---------------------------------------------------------------------------
def _echo_cell(params) -> dict:
    return {"i": params["i"]}


def sweep_calls(scratch: str) -> Callable[[int], Values]:
    def measure(seed: int) -> Values:
        ncells = 64
        cells = [
            sym("SweepCell")("ledger.echo", {"i": i, "seed": seed})
            for i in range(ncells)
        ]
        spec = sym("SweepSpec")(worker=_echo_cell, cells=cells)
        fingerprint = sym("code_fingerprint")()  # memoised: keep it out of the timing
        run_sweep, cache_cls, cache_key = (
            sym("run_sweep"), sym("SweepCache"), sym("cache_key"),
        )
        key_us = _per_call_us(
            lambda: cache_key("ledger.echo", cells[0].params, fingerprint), 2000
        )
        root = tempfile.mkdtemp(prefix="sweep-", dir=scratch)
        try:
            cache = cache_cls(root)
            cold, _ = seconds(lambda: run_sweep(spec, workers=1, cache=cache))
            warm, warm_outcome = seconds(
                lambda: run_sweep(spec, workers=1, cache=cache)
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        stats = warm_outcome.stats
        return {
            "sweep.key_us_per_cell": key_us,
            "sweep.miss_put_us_per_cell": cold / ncells * 1e6,
            "sweep.hit_us_per_cell": warm / ncells * 1e6,
            "sweep.hit_frac": stats.hits / max(1, stats.hits + stats.misses),
        }

    return measure


def cli_import(seed: int) -> Values:
    def fresh_import() -> None:
        subprocess.run(
            [sys.executable, "-c", "import repro.cli.main"],
            check=True, env=os.environ, stdout=subprocess.DEVNULL,
        )

    return {"cli.import_s": best_of(fresh_import)[0]}


# ---------------------------------------------------------------------------
def groups(scratch: str) -> list[tuple[tuple[str, ...], Callable[[int], Values]]]:
    """``(metric names, measure)`` per group; names are what a skip nulls."""
    out: list[tuple[tuple[str, ...], Callable[[int], Values]]] = [
        (("sim.dispatch_us_per_event",), sim_dispatch),
        (("kernel.spin8_us_per_event",), kernel_spin8),
    ]
    for backend in backend_names():
        out.append((
            (f"kernel.{backend}.n20_us_per_event",
             f"kernel.{backend}.decay3000_us_per_event"),
            kernel_backend(backend),
        ))
    out += [
        (("kernel.horizon_scaling_x",), kernel_horizon_scaling),
        (
            tuple(name for _l, name in LADDER) + (
                "kernel.context_switches", "kernel.schedcpu_passes",
                "kernel.lazy_materializations", "alps.agent.invocations",
                "alps.agent.reads", "alps.agent.reads_per_quantum",
                "alps.agent.signals_sent", "alps.agent.missed_boundaries",
                "obs.events_emitted",
            ),
            reference_cells,
        ),
        (("kapi.measure_us_per_pid", "kapi.signal_us"), kapi_calls),
        (("alps.algorithm.quantum_us_n20", "alps.algorithm.quantum_us_n120"),
         algorithm_quantum),
        (("obs.emit_us",), obs_emit),
        (("resilience.journal_append_us", "resilience.journal_recover_us",
          "resilience.journal_bytes_per_append"), journal_calls),
        (("sharetree.effective_shares_us_1000",), sharetree_calls),
        (("resilience.restarts", "overload.shed_total", "sharetree.migrations"),
         chaos_probe),
        (("faults.injected",), fault_probe),
        (("sweep.key_us_per_cell", "sweep.miss_put_us_per_cell",
          "sweep.hit_us_per_cell", "sweep.hit_frac"), sweep_calls(scratch)),
        (("cli.import_s",), cli_import),
    ]
    return out


def run_micro(seed: int, scratch: str) -> tuple[dict[str, dict], list[str]]:
    """Run every group; return ``{name: {"value", "unit"[, "skipped"]}}``."""
    units = {m.name: m.unit for m in MICRO_METRICS}
    results: dict[str, dict] = {}
    notes: list[str] = []
    for names, measure in groups(scratch):
        try:
            values = measure(seed)
            skipped = None
        except MissingTarget as exc:
            values, skipped = {}, f"missing: {exc}"
        except Exception as exc:  # an optional probe must not sink the run
            values, skipped = {}, f"error: {exc!r}"
            notes.append(traceback.format_exc())
        for name in names:
            entry: dict[str, Any] = {
                "value": values.get(name), "unit": units.get(name, "us/event"),
            }
            if skipped is not None:
                entry["skipped"] = skipped
            results[name] = entry
    return results, notes
