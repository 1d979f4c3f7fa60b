"""HostAlps journaled crash recovery, on :class:`FakeHost` (the
simulated kernel behind the host port): no real process is touched,
so these run in the default (non-hostos) suite.
"""

from __future__ import annotations

import json
import zlib

from repro.alps.subjects import PidGroupSubject
from repro.hostos.controller import HostAlps
from repro.kernel.signals import SIGSTOP
from repro.resilience.journal import (
    FileJournal,
    core_snapshot,
    encode_record,
    recover_journal,
)
from repro.units import ms, sec
from tests.hostos.fakehost import FakeHost


def make_journal(tmp_path) -> FileJournal:
    """The journal file of ``tmp_path``, opened (again)."""
    return FileJournal(str(tmp_path / "host.journal"), fsync=False)


def test_restore_from_journal_resumes_core_and_schedules_debt(tmp_path):
    host = FakeHost()
    a, b = host.spawn(), host.spawn()
    host.sleep(sec(1))
    journal = make_journal(tmp_path)
    first = HostAlps({a: 1, b: 3}, quantum_s=0.05, journal=journal, host=host)
    first.core.count = 17  # mid-cycle state worth preserving
    base = {a: host.usage(a), b: host.usage(b)}
    first.step.last_read = dict(base)
    journal.append(first.snapshot_state())
    journal.close()

    # "Crash": both pids consume CPU during the outage, then a fresh
    # controller comes up over the same journal.
    host.sleep(sec(1))
    second = HostAlps(
        {a: 1, b: 3},
        quantum_s=0.05,
        journal=make_journal(tmp_path),
        host=host,
    )
    assert second.restore_from_journal()
    assert second.recovered
    assert second.core.count == 17
    # Downtime consumption became amortized debt, not a lump and not a
    # forgiven re-baseline.
    now = {a: host.usage(a), b: host.usage(b)}
    assert second.step.debt == {pid: now[pid] - base[pid] for pid in now}
    assert all(debt > 0 for debt in second.step.debt.values())
    # Baselines moved to the fresh readings: the debt is charged once.
    assert second.step.last_read == now


def test_restore_prunes_pids_dead_during_outage(tmp_path):
    host = FakeHost()
    a, b = host.spawn(), host.spawn()
    journal = make_journal(tmp_path)
    first = HostAlps({a: 1, b: 3}, quantum_s=0.05, journal=journal, host=host)
    first.step.last_read = {a: 0, b: 0}
    journal.append(first.snapshot_state())
    journal.close()

    host.sleep(sec(1))
    host.exit(b)
    second = HostAlps(
        {a: 1, b: 3},
        quantum_s=0.05,
        journal=make_journal(tmp_path),
        host=host,
    )
    assert second.restore_from_journal()
    assert b not in second.core.subjects
    assert a in second.core.subjects


def test_restore_returns_false_without_usable_journal(tmp_path):
    alps = HostAlps({41: 1}, quantum_s=0.05)  # no journal at all
    assert not alps.restore_from_journal()

    empty = FileJournal(str(tmp_path / "empty.journal"), fsync=False)
    alps2 = HostAlps({41: 1}, quantum_s=0.05, journal=empty)
    assert not alps2.restore_from_journal()
    assert not alps2.recovered

    # A journal whose only record is not a valid snapshot payload.
    path = tmp_path / "bad.journal"
    path.write_bytes(encode_record(0, {"kind": "not-a-snapshot"}))
    alps3 = HostAlps(
        {41: 1}, quantum_s=0.05,
        journal=FileJournal(str(path), fsync=False),
    )
    assert not alps3.restore_from_journal()


def test_restore_treats_a_non_mapping_agent_section_as_corrupt(tmp_path):
    """A CRC-valid checkpoint whose ``agent`` section is a list is a
    corrupt journal — a fresh start — not a crash."""
    path = str(tmp_path / "host.journal")
    first = HostAlps({41: 1}, quantum_s=0.05)
    with FileJournal(path, fsync=False) as journal:
        journal.append({"v": 1, "core": core_snapshot(first.core), "agent": []})
    second = HostAlps(
        {41: 1}, quantum_s=0.05, journal=FileJournal(path, fsync=False)
    )
    assert not second.restore_from_journal()
    assert not second.recovered


# ----------------------------------------------------------------------
# Checkpoint + delta journal written by the controller itself
# ----------------------------------------------------------------------
def without_clock(snapshot: dict) -> dict:
    """A snapshot minus its clock stamp, as a decoded record."""
    snapshot = json.loads(json.dumps(snapshot))
    del snapshot["t"]
    return snapshot


def record_writes(alps: HostAlps, journal: FileJournal) -> list[dict]:
    """Write-ahead: a record predates the signals it encodes, so the
    state to compare with is the controller's as each record is put."""
    at_write: list[dict] = []
    real_write = journal._write

    def write(encoded: bytes) -> bool:
        at_write.append(without_clock(alps.snapshot_state()))
        return real_write(encoded)

    journal._write = write
    return at_write


def folded(journal: FileJournal) -> dict:
    got = dict(recover_journal(journal._read()).snapshot)
    del got["t"]
    return got


def test_host_journals_deltas_and_restores_from_them(tmp_path):
    host = FakeHost()
    pids = [host.spawn() for _ in range(3)]
    journal = make_journal(tmp_path)
    first = HostAlps(
        dict(zip(pids, (1, 2, 3))), quantum_s=0.01, journal=journal, host=host
    )
    for pid in pids:
        first.step.baseline(pid)
    at_write = record_writes(first, journal)
    late = None
    for quantum in range(60):
        host.sleep(ms(10))
        first._one_quantum()
        if quantum == 30:  # a join mid-run: membership-grade
            late = host.spawn()
            assert first.submit_pid(late, 2)
        # After every quantum the file folds to that state.
        assert folded(journal) == at_write[-1]
    assert len(at_write) == 60
    assert host.sent, "the run never stopped or resumed anything"
    kinds = [line[:6] for line in journal._read().splitlines()]
    assert kinds.count(b"ALPSD1") > kinds.count(b"ALPSJ1") >= 3
    journal.close()

    # "Crash": a fresh controller over the same file.
    second = HostAlps(
        {**dict(zip(pids, (1, 2, 3))), late: 2},
        quantum_s=0.01,
        journal=make_journal(tmp_path),
        host=host,
    )
    assert second.restore_from_journal()
    core = first.core
    assert second.core.count == core.count
    assert second.core.tc == core.tc
    assert second.core.cycles_completed == core.cycles_completed
    assert list(second.core.subjects) == list(core.subjects)
    for pid, st in core.subjects.items():
        restored = second.core.subjects[pid]
        assert (restored.share, restored.allowance, restored.state) == (
            st.share, st.allowance, st.state
        )
    # Write-ahead: the stop-set as the last record found it, before the
    # signals it encodes went out.
    assert sorted(second.step.stopped) == at_write[-1]["agent"]["stopped"]
    assert second.step.initial == first.step.initial
    # Its first record is a checkpoint again, and the file still folds.
    host.sleep(ms(10))
    second._one_quantum()
    tail = second.journal._read().splitlines()[-1]
    assert tail.startswith(b"ALPSJ1 ")
    assert second.core.count == core.count + 1
    second.journal.close()


def test_host_restores_from_a_v1_full_snapshot_journal(tmp_path):
    """A journal as the previous format wrote it — a full snapshot per
    quantum, no deltas — is a journal of checkpoints."""
    host = FakeHost()
    a, b = host.spawn(), host.spawn()
    host.kernel.kill(b, SIGSTOP)  # b consumes nothing from here on
    host.sleep(sec(1))
    ua, ub = host.usage(a), host.usage(b)
    path = tmp_path / "host.journal"
    first = HostAlps({a: 1, b: 3}, quantum_s=0.05, host=host)
    lines = []
    for seq in range(4):
        first.core.count = seq
        first.step.last_read = {a: ua - 503 + seq, b: ub - 3 + seq}
        snapshot = first.snapshot_state()
        del snapshot["agent"]["cumulative"]  # not written back then
        body = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(f"{seq} {body}".encode())
        lines.append(f"ALPSJ1 {seq} {crc:08x} {body}\n".encode())
    path.write_bytes(b"".join(lines))
    second = HostAlps(
        {a: 1, b: 3},
        quantum_s=0.05,
        journal=make_journal(tmp_path),
        host=host,
    )
    assert second.restore_from_journal()
    assert second.core.count == 3
    assert second.step.debt == {a: 500}


def groups(pids: list[int]) -> list[PidGroupSubject]:
    return [PidGroupSubject(0, 1, pids[:2]), PidGroupSubject(1, 3, pids[2:])]


def test_restore_sums_a_groups_outage_debt_on_its_sid(tmp_path):
    host = FakeHost()
    pids = [host.spawn() for _ in range(3)]
    host.kernel.kill(pids[2], SIGSTOP)  # group 1 consumes nothing
    journal = make_journal(tmp_path)
    first = HostAlps(groups(pids), quantum_s=0.05, journal=journal, host=host)
    first.step.last_read = {pid: host.usage(pid) for pid in pids}
    journal.append(first.snapshot_state())
    journal.close()
    host.sleep(sec(1))
    second = HostAlps(
        groups(pids),
        quantum_s=0.05,
        journal=make_journal(tmp_path),
        host=host,
    )
    assert second.restore_from_journal()
    now = {pid: host.usage(pid) for pid in pids}
    assert second.step.debt == {
        0: sum(now[pid] - first.step.last_read[pid] for pid in pids[:2])
    }
    assert second.step.last_read == now


def test_group_journal_round_trip(tmp_path):
    """Deltas carry the due subjects' *pids*: after every quantum the
    file folds to the controller's state, and a fresh controller over
    the same subjects recovers it."""
    host = FakeHost()
    pids = [host.spawn() for _ in range(3)]
    journal = make_journal(tmp_path)
    first = HostAlps(groups(pids), quantum_s=0.01, journal=journal, host=host)
    for pid in pids:
        first.step.baseline(pid)
    at_write = record_writes(first, journal)
    for _ in range(40):
        host.sleep(ms(10))
        first._one_quantum()
        assert folded(journal) == at_write[-1]
    kinds = [line[:6] for line in journal._read().splitlines()]
    assert kinds.count(b"ALPSD1") > kinds.count(b"ALPSJ1")
    journal.close()

    second = HostAlps(
        groups(pids),
        quantum_s=0.01,
        journal=make_journal(tmp_path),
        host=host,
    )
    assert second.restore_from_journal()
    assert second.core.count == first.core.count
    assert second.core.tc == first.core.tc
    assert sorted(second.step.stopped) == at_write[-1]["agent"]["stopped"]
    last = first.step.last_read
    assert second.step.cumulative == first.step.cumulative == {
        0: last[pids[0]] + last[pids[1]],
        1: last[pids[2]],
    }
    second.journal.close()
