"""HostAlps journaled crash recovery, with procfs monkeypatched.

Never touches real processes: procfs reads are scripted, so these run
in the default (non-hostos) suite.
"""

from __future__ import annotations

import json
import os
import zlib

from repro.alps.subjects import PidGroupSubject
from repro.errors import HostOSError
from repro.hostos import procfs
from repro.hostos.controller import HostAlps
from repro.resilience.journal import (
    FileJournal,
    core_snapshot,
    encode_record,
    recover_journal,
)


def make_journal(tmp_path) -> FileJournal:
    return FileJournal(str(tmp_path / "host.journal"), fsync=False)


def patched_procfs(monkeypatch, usages: dict[int, int]) -> None:
    monkeypatch.setattr(procfs, "cpu_time_us", lambda pid: usages[pid])
    monkeypatch.setattr(procfs, "is_alive", lambda pid: pid in usages)


def test_restore_from_journal_resumes_core_and_schedules_debt(
    tmp_path, monkeypatch
):
    journal = make_journal(tmp_path)
    first = HostAlps({41: 1, 42: 3}, quantum_s=0.05, journal=journal)
    first.core.count = 17  # mid-cycle state worth preserving
    first._last_read = {41: 1_000, 42: 5_000}
    journal.append(first.snapshot_state())
    journal.close()

    # "Crash": a fresh controller over the same journal.  Both pids
    # consumed CPU during the outage.
    patched_procfs(monkeypatch, {41: 1_800, 42: 6_200})
    second = HostAlps(
        {41: 1, 42: 3},
        quantum_s=0.05,
        journal=FileJournal(str(tmp_path / "host.journal"), fsync=False),
    )
    assert second.restore_from_journal()
    assert second.recovered
    assert second.core.count == 17
    # Downtime consumption became amortized debt, not a lump and not a
    # forgiven re-baseline.
    assert second._deferred_debt == {41: 800, 42: 1_200}
    # Baselines moved to the fresh readings: the debt is charged once.
    assert second._last_read == {41: 1_800, 42: 6_200}


def test_restore_prunes_pids_dead_during_outage(tmp_path, monkeypatch):
    journal = make_journal(tmp_path)
    first = HostAlps({41: 1, 42: 3}, quantum_s=0.05, journal=journal)
    first._last_read = {41: 1_000, 42: 5_000}
    journal.append(first.snapshot_state())
    journal.close()

    def read(pid):
        if pid == 42:
            raise HostOSError("gone")
        return 1_500

    monkeypatch.setattr(procfs, "cpu_time_us", read)
    monkeypatch.setattr(procfs, "is_alive", lambda pid: pid == 41)
    second = HostAlps(
        {41: 1, 42: 3},
        quantum_s=0.05,
        journal=FileJournal(str(tmp_path / "host.journal"), fsync=False),
    )
    assert second.restore_from_journal()
    assert 42 not in second.core.subjects
    assert 41 in second.core.subjects


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
def scripted_host(monkeypatch, usages: dict[int, int]):
    """procfs and kill(2) replaced by a script: each read of a pid sees
    it 3 ms further on; signals only land in ``sent``."""
    sent: list[tuple[int, int]] = []

    def read_stat(pid):
        if pid not in usages:
            raise HostOSError("gone")
        usages[pid] += 3_000
        ticks = usages[pid] // procfs._US_PER_TICK
        return procfs.ProcStat(pid, "w", "R", ticks, 0)

    monkeypatch.setattr(procfs, "read_proc_stat", read_stat)
    monkeypatch.setattr(procfs, "cpu_time_us", lambda pid: read_stat(pid).cpu_time_us)
    monkeypatch.setattr(procfs, "is_alive", lambda pid: pid in usages)
    monkeypatch.setattr(os, "kill", lambda pid, signo: sent.append((pid, signo)))
    return sent


def without_clock(snapshot: dict) -> dict:
    """A snapshot minus its wall-clock stamp, as a decoded record."""
    snapshot = json.loads(json.dumps(snapshot))
    del snapshot["t"]
    return snapshot


def test_host_journals_deltas_and_restores_from_them(tmp_path, monkeypatch):
    path = str(tmp_path / "host.journal")
    usages = {41: 0, 42: 0, 43: 0}
    sent = scripted_host(monkeypatch, usages)
    journal = FileJournal(path, fsync=False)
    first = HostAlps({41: 1, 42: 2, 43: 3}, quantum_s=0.01, journal=journal)
    first._last_read = dict(usages)
    first._initial = dict(usages)
    # Write-ahead: the record predates the signals it encodes, so the
    # state to compare with is the controller's as each record is put.
    at_write: list[dict] = []
    real_write = journal._write

    def write(encoded: bytes) -> bool:
        at_write.append(without_clock(first.snapshot_state()))
        return real_write(encoded)

    journal._write = write
    for quantum in range(60):
        first._one_quantum()
        if quantum == 30:  # a join mid-run: membership-grade
            usages[44] = 0
            assert first.submit_pid(44, 2)
        # After every quantum the file folds to that state.
        got = dict(recover_journal(journal._read()).snapshot)
        del got["t"]
        assert got == at_write[-1]
    assert len(at_write) == 60
    assert sent, "the run never stopped or resumed anything"
    kinds = [line[:6] for line in journal._read().splitlines()]
    assert kinds.count(b"ALPSD1") > kinds.count(b"ALPSJ1") >= 3
    journal.close()

    # "Crash": a fresh controller over the same file.
    second = HostAlps(
        {41: 1, 42: 2, 43: 3, 44: 2},
        quantum_s=0.01,
        journal=FileJournal(path, fsync=False),
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
    assert second._stopped == first._stopped
    assert second._initial == first._initial
    # Its first record is a checkpoint again, and the file still folds.
    second._one_quantum()
    tail = second.journal._read().splitlines()[-1]
    assert tail.startswith(b"ALPSJ1 ")
    assert second.core.count == core.count + 1
    second.journal.close()


def test_host_restores_from_a_v1_full_snapshot_journal(tmp_path, monkeypatch):
    """A journal as the previous format wrote it — a full snapshot per
    quantum, no deltas — is a journal of checkpoints."""
    path = tmp_path / "host.journal"
    first = HostAlps({41: 1, 42: 3}, quantum_s=0.05)
    lines = []
    for seq in range(4):
        first.core.count = seq
        first._last_read = {41: 1_000 + seq, 42: 5_000 + seq}
        snapshot = first.snapshot_state()
        del snapshot["agent"]["cumulative"]  # not written back then
        body = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(f"{seq} {body}".encode())
        lines.append(f"ALPSJ1 {seq} {crc:08x} {body}\n".encode())
    path.write_bytes(b"".join(lines))
    patched_procfs(monkeypatch, {41: 1_503, 42: 5_003})
    second = HostAlps(
        {41: 1, 42: 3},
        quantum_s=0.05,
        journal=FileJournal(str(path), fsync=False),
    )
    assert second.restore_from_journal()
    assert second.core.count == 3
    assert second._deferred_debt == {41: 500}


def groups() -> list[PidGroupSubject]:
    return [PidGroupSubject(0, 1, [41, 42]), PidGroupSubject(1, 3, [43])]


def test_restore_sums_a_groups_outage_debt_on_its_sid(tmp_path, monkeypatch):
    journal = make_journal(tmp_path)
    first = HostAlps(groups(), quantum_s=0.05, journal=journal)
    first._last_read = {41: 1_000, 42: 5_000, 43: 7_000}
    journal.append(first.snapshot_state())
    journal.close()
    patched_procfs(monkeypatch, {41: 1_800, 42: 6_200, 43: 7_000})
    second = HostAlps(
        groups(),
        quantum_s=0.05,
        journal=FileJournal(str(tmp_path / "host.journal"), fsync=False),
    )
    assert second.restore_from_journal()
    assert second._deferred_debt == {0: 2_000}
    assert second._last_read == {41: 1_800, 42: 6_200, 43: 7_000}


def test_group_journal_round_trip(tmp_path, monkeypatch):
    """Deltas carry the due subjects' *pids*: after every quantum the
    file folds to the controller's state, and a fresh controller over
    the same subjects recovers it."""
    path = str(tmp_path / "host.journal")
    usages = {41: 0, 42: 0, 43: 0}
    scripted_host(monkeypatch, usages)
    journal = FileJournal(path, fsync=False)
    first = HostAlps(groups(), quantum_s=0.01, journal=journal)
    first._last_read = dict(usages)
    first._initial = dict(usages)
    at_write: list[dict] = []
    real_write = journal._write

    def write(encoded: bytes) -> bool:
        at_write.append(without_clock(first.snapshot_state()))
        return real_write(encoded)

    journal._write = write
    for _ in range(40):
        first._one_quantum()
        got = dict(recover_journal(journal._read()).snapshot)
        del got["t"]
        assert got == at_write[-1]
    kinds = [line[:6] for line in journal._read().splitlines()]
    assert kinds.count(b"ALPSD1") > kinds.count(b"ALPSJ1")
    journal.close()

    second = HostAlps(groups(), quantum_s=0.01, journal=FileJournal(path, fsync=False))
    assert second.restore_from_journal()
    assert second.core.count == first.core.count
    assert second.core.tc == first.core.tc
    assert second._stopped == first._stopped
    assert second._cumulative == first._cumulative == {
        0: first._last_read[41] + first._last_read[42],
        1: first._last_read[43],
    }
    second.journal.close()
