"""Resilience — journaled crash recovery vs the lossy re-baseline.

An agent crash mid-run loses volatile state; what recovery preserves
decides how much fairness the crash costs.  This benchmark runs the
same seeded workload three ways — fault-free, crash with journaled
recovery, crash with the PR 1 lossy re-baseline — and compares the
*cumulative* per-process attained-CPU fractions of the two recovery
paths against the fault-free run.

Reproduction claims: the journaled path lands within ``MAX_ERROR`` of
the fault-free split on every seed, and is strictly better than the
lossy path (which forgives the downtime debt and permanently shifts the
split).

It also prints what the journal costs to keep and to read back — bytes
per append and the wall time of one recovery — for the run and for one
ten times as long: a recovery checks every line's CRC but decodes only
the newest checkpoint and its delta chain, and compaction bounds the
lines, so the cost does not grow with the length of the run.
"""

import statistics
import time

from benchmarks.conftest import emit
from repro.alps.config import AlpsConfig
from repro.analysis.export import write_csv
from repro.analysis.tables import format_table
from repro.experiments.common import run_for_cycles
from repro.faults.plan import AgentCrash, FaultPlan
from repro.resilience.journal import MemoryJournal
from repro.units import ms
from repro.workloads.scenarios import build_controlled_workload

SHARES = (1, 2, 3, 4)
QUANTUM_US = ms(10)
CYCLES = 60
SEEDS = (0, 1, 2)

#: Max allowed deviation (absolute attained fraction) of the journaled
#: path from the fault-free run.  Virtual time, so the same on any box.
MAX_ERROR = 0.005


def _attained_fractions(cw) -> list[float]:
    kapi = cw.kernel.kapi
    usages = [kapi.getrusage(p.pid) for p in cw.workers]
    total = sum(usages)
    return [u / total for u in usages]


def _run(seed: int, *, crash: bool, journaled: bool) -> list[float]:
    horizon_us = int(2 * (CYCLES + 5) * sum(SHARES) * QUANTUM_US)
    plan = None
    if crash:
        plan = FaultPlan(
            seed=seed,
            horizon_us=horizon_us,
            agent_crashes=(AgentCrash(time_us=horizon_us // 3),),
        )
    journal = MemoryJournal() if journaled else None
    cw = build_controlled_workload(
        list(SHARES),
        AlpsConfig(quantum_us=QUANTUM_US),
        seed=seed,
        fault_plan=plan,
        journal=journal,
    )
    run_for_cycles(cw, CYCLES, max_sim_us=horizon_us, on_incomplete="ignore")
    cw.agent.shutdown(cw.kernel.kapi)
    if journaled:
        assert cw.agent.journal_recoveries == 1
        assert cw.agent.recovery_fallbacks == 0
    return _attained_fractions(cw)


def _max_deviation(a: list[float], b: list[float]) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def _sweep():
    rows = []
    for seed in SEEDS:
        reference = _run(seed, crash=False, journaled=False)
        journaled = _run(seed, crash=True, journaled=True)
        lossy = _run(seed, crash=True, journaled=False)
        rows.append(
            {
                "seed": seed,
                "journaled_dev": _max_deviation(journaled, reference),
                "lossy_dev": _max_deviation(lossy, reference),
            }
        )
    return rows


def test_journaled_recovery_beats_rebaseline(benchmark, results_dir):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    emit(
        "RESILIENCE — crash-recovery fidelity "
        "(max attained-fraction deviation vs fault-free)",
        format_table(
            ["seed", "journaled", "re-baseline", "improvement"],
            [
                [
                    r["seed"],
                    f"{r['journaled_dev']:.6f}",
                    f"{r['lossy_dev']:.6f}",
                    f"{r['lossy_dev'] / max(r['journaled_dev'], 1e-12):.0f}x",
                ]
                for r in rows
            ],
        ),
    )
    write_csv(results_dir / "resilience_recovery.csv", rows)

    for r in rows:
        # 1. Journaled recovery restores the fault-free split within the
        #    configured bound.
        assert r["journaled_dev"] <= MAX_ERROR, (
            f"seed {r['seed']}: journaled deviation {r['journaled_dev']:.6f} "
            f"exceeds MAX_ERROR={MAX_ERROR}"
        )
        # 2. And strictly beats the PR 1 lossy re-baseline path.
        assert r["journaled_dev"] < r["lossy_dev"], (
            f"seed {r['seed']}: journaled {r['journaled_dev']:.6f} not "
            f"better than re-baseline {r['lossy_dev']:.6f}"
        )


def _journal_cost(cycles: int) -> dict:
    """Run fault-free for ``cycles`` with a journal; size it, time it."""
    journal = MemoryJournal()
    cw = build_controlled_workload(
        list(SHARES), AlpsConfig(quantum_us=QUANTUM_US), seed=0, journal=journal
    )
    run_for_cycles(
        cw,
        cycles,
        max_sim_us=int(2 * (cycles + 5) * sum(SHARES) * QUANTUM_US),
        on_incomplete="ignore",
    )
    # One line per append since the last compaction, which left one
    # checkpoint in front of them.
    records = journal.data.splitlines()[1 if journal.compactions else 0 :]
    walls = []
    for _ in range(9):
        t0 = time.perf_counter()
        rec = journal.recover()
        walls.append(time.perf_counter() - t0)
    assert rec.snapshot["core"]["cycles"] == len(cw.agent.cycle_log)
    return {
        "cycles": cycles,
        "appends": journal.appends,
        "bytes_per_append": sum(len(r) + 1 for r in records) / len(records),
        "journal_bytes": len(journal),
        "compactions": journal.compactions,
        "recover_us": statistics.median(walls) * 1e6,
    }


def test_journal_cost_does_not_grow_with_run_length():
    rows = [_journal_cost(CYCLES), _journal_cost(10 * CYCLES)]
    emit(
        "RESILIENCE — journal size and recovery time vs run length",
        format_table(
            ["cycles", "appends", "B/append", "journal B", "compactions",
             "recover us"],
            [
                [
                    r["cycles"],
                    r["appends"],
                    f"{r['bytes_per_append']:.0f}",
                    r["journal_bytes"],
                    r["compactions"],
                    f"{r['recover_us']:.0f}",
                ]
                for r in rows
            ],
        ),
    )
    short, long = rows
    assert long["appends"] >= 5 * short["appends"]
    # What a recovery reads is bounded by the compaction threshold, not
    # by how long the run has been going.
    assert long["compactions"] >= 1
    assert long["journal_bytes"] < 4096 * 2 * long["bytes_per_append"]
