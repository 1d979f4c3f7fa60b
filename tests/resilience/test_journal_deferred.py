"""``MemoryJournal`` encodes a captured delta only when its bytes are read.

Every test here runs the same workload twice: once as it ships, and once
with a reference writer that builds each delta as a dict and encodes it
at append (:func:`eager_journal_quantum` into :class:`EagerJournal`,
which keeps every record as bytes from the start).  The journal bytes,
and under write faults the injector's trace, must come out identical.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

import repro.resilience.chaos as chaos_module
import repro.resilience.journal as journal_module
import repro.sharetree.resilience as plane_module
from repro.alps.algorithm import AlpsCore
from repro.alps.config import AlpsConfig
from repro.faults.plan import FaultPlan
from repro.obs import Observer
from repro.overload import OverloadGuard
from repro.perf.differential import TABLE2_SIZES
from repro.resilience.chaos import run_chaos_episode, run_plane_episode
from repro.resilience.journal import (
    TORN,
    MemoryJournal,
    _Journal,
    _subject_row,
    journal_quantum,
    state_snapshot,
)
from repro.resilience.supervisor import RestartPolicy, Supervisor
from repro.sharetree import ShareTree
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.shares import DISTRIBUTIONS, workload_shares
from tests.resilience.scripted_faults import scripted_faults

QUANTUM_US = ms(10)

#: Small chaos episodes (seconds, not minutes), as tests/resilience uses.
FAST = dict(cycles=20, warmup_cycles=2)


def eager_journal_quantum(step, t, due, measurements, full, signalled):
    """The delta writer with nothing deferred: the record is a dict,
    encoded by ``append_delta`` before this returns."""
    journal, core = step.journal, step.core
    if full or journal.needs_checkpoint:
        journal.append(step.snapshot(t))
        return
    last_read, cumulative = step.last_read, step.cumulative
    agent = {
        "last_read": {
            pid: last_read[pid]
            for _, pids in due
            for pid in pids
            if pid in last_read
        },
        "cumulative": {
            sid: cumulative[sid] for sid in measurements if sid in cumulative
        },
        "stopped": {pid: pid in step.stopped for pid in signalled},
    }
    if step.debt:
        agent["debt"] = dict(step.debt)
    due = core._last_due
    journal.append_delta(
        {
            "t": t,
            "core": {
                "count": core.count,
                "tc": core.tc,
                "cycles": core.cycles_completed,
                "due": list(due),
                "subjects": [_subject_row(sid, core.subjects[sid]) for sid in due],
            },
            "agent": agent,
        }
    )


def driver_state(journal, core, debt):
    """The few fields of a :class:`~repro.alps.step.QuantumStep` the
    writers read, for a driver that measures and signals nothing."""
    return SimpleNamespace(
        journal=journal,
        core=core,
        last_read={},
        cumulative={},
        stopped=set(),
        debt=debt,
        snapshot=lambda t: state_snapshot(
            core, t, (), {"last_read": {}, "cumulative": {}, "debt": debt}
        ),
    )


class EagerJournal(_Journal):
    """Reference store: each record is bytes at append, is damaged as
    the hook's verdict says, and compaction scans what the buffer
    holds."""

    def __init__(self, *, fault_hook=None, compact_threshold: int = 4096):
        super().__init__(compact_threshold)
        self._buf = bytearray()
        self.fault_hook = fault_hook

    def _write(self, record) -> bool:
        assert type(record) is bytes, "the eager writer captured a delta"
        hook = self.fault_hook
        fate = None if hook is None else hook.verdict()
        faulted = record if fate is None else hook.damage(fate, record)
        if faulted is None:
            return False
        self._buf += faulted
        return len(faulted) == len(record)

    def _read(self) -> bytes:
        return bytes(self._buf)

    def _replace(self, encoded: bytes) -> None:
        self._buf = bytearray(encoded)

    @property
    def data(self) -> bytes:
        return self._read()


#: The journal as shipped, and the reference it must match byte for byte.
WRITERS = (
    (MemoryJournal, journal_quantum),
    (EagerJournal, eager_journal_quantum),
)


def both_ways(monkeypatch, run, module):
    """``run()`` with each writer; each time also the bytes of every
    ``MemoryJournal`` that ``module`` made."""
    outcomes = []
    for cls, writer in WRITERS:
        made: list[MemoryJournal] = []

        def make(*args, cls=cls, **kwargs):
            journal = cls(*args, **kwargs)
            made.append(journal)
            return journal

        with monkeypatch.context() as patch:
            patch.setattr(journal_module, "journal_quantum", writer)
            patch.setattr(module, "MemoryJournal", make)
            result = run()
        outcomes.append((result, [journal.data for journal in made]))
    return outcomes


def stacked_cell(shares, seed: int, journal, horizon_us: int, plan: FaultPlan):
    """A Table 2 cell with every optional layer on, as the ledger's
    ``table2_stacked`` workload attaches them (there, ``plan`` is null)."""
    cw = build_controlled_workload(
        shares,
        AlpsConfig(quantum_us=QUANTUM_US),
        seed=seed,
        observer=Observer(),
        journal=journal,
        supervisor=Supervisor(RestartPolicy(), quantum_us=QUANTUM_US),
        overload=OverloadGuard(),
        sharetree=ShareTree.flat(shares),
        fault_plan=plan,
    )
    cw.engine.run_until(horizon_us)
    return cw


def stacked_journals(
    monkeypatch, shares, seed, horizon_us, plan=FaultPlan(), **journal_kwargs
):
    """The stacked cell's journal with each writer."""
    journals = []
    for cls, writer in WRITERS:
        with monkeypatch.context() as patch:
            patch.setattr(journal_module, "journal_quantum", writer)
            journal = cls(**journal_kwargs)
            stacked_cell(shares, seed, journal, horizon_us, plan)
        journals.append(journal)
    return journals


@pytest.mark.parametrize("model", DISTRIBUTIONS)
@pytest.mark.parametrize("n", TABLE2_SIZES)
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_stacked_table2_cell_journals_the_same_bytes(monkeypatch, model, n, seed):
    shipped, eager = stacked_journals(
        monkeypatch, workload_shares(model, n), seed, sec(1)
    )
    assert shipped.fault_hook is None  # a null plan attaches no hook
    assert shipped.data.count(b"\n") == shipped.appends == 99  # one a quantum
    assert shipped.data == eager.data


def test_chaos_episode_with_lost_and_torn_appends(monkeypatch):
    made = []
    build = chaos_module.build_controlled_workload

    def recording_build(*args, **kwargs):
        made.append(build(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(chaos_module, "build_controlled_workload", recording_build)
    outcomes = both_ways(
        monkeypatch,
        lambda: run_chaos_episode(0, 0.1, **FAST),
        chaos_module,
    )
    (shipped, shipped_data), (eager, eager_data) = outcomes
    assert shipped_data == eager_data and len(shipped_data) == 1
    assert dataclasses.asdict(shipped) == dataclasses.asdict(eager)
    trace, eager_trace = (cw.injector.trace_lines() for cw in made)
    assert trace == eager_trace
    drops = [line for line in trace if " journal-drop bytes=" in line]
    tears = [line for line in trace if " journal-torn kept=" in line]
    assert drops and tears and all(" of=" in line for line in tears)
    assert (len(drops), len(tears)) == (
        shipped.journal_writes_lost,
        shipped.journal_writes_torn,
    )
    assert shipped.journal_recoveries > 0  # the journal was read mid-run


def test_plane_episode_journals_the_same_bytes(monkeypatch):
    outcomes = both_ways(
        monkeypatch,
        lambda: run_plane_episode(
            3, 0.05, plane_kind="crash", restart_budget=2, **FAST
        ),
        plane_module,
    )
    (shipped, shipped_data), (eager, eager_data) = outcomes
    assert shipped.journal_writes_lost > 0
    assert dataclasses.asdict(shipped) == dataclasses.asdict(eager)
    assert len(shipped_data) > 1 and shipped_data == eager_data


@pytest.mark.parametrize(
    "plan",
    (
        FaultPlan(),
        FaultPlan(journal_write_fail_prob=0.2, journal_torn_write_prob=0.1),
    ),
    ids=("whole", "lost-and-torn"),
)
def test_compaction_folds_pending_records(monkeypatch, plan):
    """Compaction reads the pending records like any other read: the
    journal it leaves, and what recovers from it, are an eager store's."""
    shipped, eager = stacked_journals(
        monkeypatch,
        workload_shares(DISTRIBUTIONS[-1], 10),
        0,
        sec(5),
        plan,
        compact_threshold=100,
    )
    assert shipped.compactions == eager.compactions == 4
    assert shipped.data == eager.data
    assert shipped.recover() == eager.recover()


def test_a_captured_delta_keeps_the_debt_it_was_appended_with():
    core = AlpsCore({0: 1, 1: 1, 2: 1}, QUANTUM_US)
    debt = {0: 500}
    journal = MemoryJournal()

    step = driver_state(journal, core, debt)

    def append(t: int) -> None:
        journal_quantum(step, t, (), (), False, ())

    append(0)  # the first record is a checkpoint
    append(1)  # then a delta, still unencoded
    debt[0] = 1
    debt[2] = 7
    assert journal.recover().snapshot["agent"]["debt"] == {"0": 500}


def test_a_torn_write_is_held_in_order_however_short_it_is():
    """A torn append leaves one byte, ``A``, between captured deltas
    still held unencoded: the bytes and the recovery point must be an
    eager store's."""
    fates = [None, None, TORN, None, None, None]  # the third append is torn
    journals = []
    for cls, writer in WRITERS:
        core = AlpsCore({0: 1, 1: 2, 2: 3}, QUANTUM_US)
        journal = cls(fault_hook=scripted_faults(fates))
        step = driver_state(journal, core, {})
        for t in range(len(fates)):
            core.begin_quantum()
            core.complete_quantum({})
            writer(step, t, (), (), False, ())
        journals.append(journal)
    shipped, eager = journals
    assert shipped.data == eager.data
    assert shipped.data.count(b"ALPSJ1") == 2  # the first, and after the tear
    assert b"\nAALPSJ1 " in shipped.data
    assert shipped.recover() == eager.recover()
