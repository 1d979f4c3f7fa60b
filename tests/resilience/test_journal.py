"""Journal record format, salvage recovery, and both journal stores."""

from __future__ import annotations

import pytest

from repro.alps.algorithm import AlpsCore
from repro.errors import JournalCorruptError
from repro.resilience.journal import (
    LOST,
    MAX_DELTA_CHAIN,
    TORN,
    FileJournal,
    MemoryJournal,
    core_snapshot,
    encode_delta,
    encode_record,
    recover_journal,
    restore_state,
)
from tests.resilience.scripted_faults import scripted_faults


def payload(n: int) -> dict:
    return {"kind": "snapshot", "n": n}


# ----------------------------------------------------------------------
# Record format
# ----------------------------------------------------------------------
def test_encode_is_deterministic_and_newline_terminated():
    a = encode_record(3, {"b": 1, "a": 2})
    b = encode_record(3, {"a": 2, "b": 1})  # key order must not matter
    assert a == b
    assert a.endswith(b"\n")
    assert a.startswith(b"ALPSJ1 3 ")


def test_recover_empty_journal():
    rec = recover_journal(b"")
    assert rec.snapshot is None
    assert rec.last_seq == -1
    assert rec.records == 0


def test_recover_clean_journal_returns_last_record():
    data = b"".join(encode_record(i, payload(i)) for i in range(5))
    rec = recover_journal(data)
    assert rec.records == 5
    assert rec.last_seq == 4
    assert rec.snapshot == payload(4)
    assert rec.discarded_bytes == 0
    assert rec.valid_bytes == len(data)


def test_bit_flip_invalidates_only_that_record():
    records = [encode_record(i, payload(i)) for i in range(4)]
    corrupt = bytearray(records[2])
    corrupt[len(corrupt) // 2] ^= 0xFF  # flip a body byte: CRC fails
    data = records[0] + records[1] + bytes(corrupt) + records[3]
    rec = recover_journal(data)
    assert rec.records == 3
    assert rec.snapshot == payload(3)  # later record salvaged
    assert rec.discarded_bytes == len(records[2])


def test_torn_tail_is_discarded():
    data = b"".join(encode_record(i, payload(i)) for i in range(3))
    torn = data + encode_record(3, payload(3))[:-5]  # no newline
    rec = recover_journal(torn)
    assert rec.records == 3
    assert rec.snapshot == payload(2)
    assert rec.discarded_bytes > 0


def test_torn_mid_journal_append_does_not_shadow_later_records():
    """The regression the salvage scan exists for: a torn record eats
    its newline, merging with the next append onto one line.  Recovery
    must resynchronise and keep trusting the CRC'd records after it."""
    good = [encode_record(i, payload(i)) for i in range(6)]
    torn = encode_record(99, {"kind": "snapshot", "n": 99})[:-10]
    data = good[0] + good[1] + torn + good[2] + good[3] + good[4] + good[5]
    rec = recover_journal(data)
    assert rec.snapshot == payload(5)
    assert rec.last_seq == 5
    # Only the torn record (and nothing else) was lost: the append it
    # merged with is salvaged from inside the damaged line.
    assert rec.records == 6
    assert rec.discarded_bytes == len(torn)


def test_stale_sequence_numbers_never_shadow_newer_state():
    data = (
        encode_record(5, payload(5))
        + encode_record(2, payload(2))  # replayed old record
        + encode_record(6, payload(6))
    )
    rec = recover_journal(data)
    assert rec.snapshot == payload(6)
    assert rec.records == 2  # the stale record does not count


def test_strict_mode_raises_on_any_damage():
    data = encode_record(0, payload(0)) + b"garbage-no-newline"
    with pytest.raises(JournalCorruptError) as exc:
        recover_journal(data, strict=True)
    assert exc.value.discarded_bytes > 0
    # Clean data never raises.
    recover_journal(encode_record(0, payload(0)), strict=True)


def test_pure_garbage_recovers_to_nothing():
    rec = recover_journal(b"not a journal\nat all\n")
    assert rec.snapshot is None
    assert rec.records == 0
    assert rec.discarded_bytes > 0


# ----------------------------------------------------------------------
# MemoryJournal
# ----------------------------------------------------------------------
def test_memory_journal_roundtrip_and_seq_advance():
    j = MemoryJournal()
    for i in range(10):
        j.append(payload(i))
    rec = j.recover()
    assert rec.snapshot == payload(9)
    assert rec.records == 10
    assert j.appends == 10


def test_memory_journal_fault_hook_can_lose_and_tear():
    noted = []
    hook = scripted_faults(
        [LOST, TORN], keep=lambda size: 11, note=lambda *fault: noted.append(fault)
    )
    j = MemoryJournal(fault_hook=hook)
    j.append(payload(0))  # lost
    j.append(payload(1))  # torn
    j.append(payload(2))  # intact
    rec = j.recover()
    assert rec.snapshot == payload(2)
    assert rec.records == 1
    size = len(encode_record(0, payload(0)))
    assert noted == [(None, size), (11, size)]
    assert j.data.startswith(encode_record(1, payload(1))[:11] + b"ALPSJ1 2 ")


def test_memory_journal_compaction_preserves_recovery_point():
    j = MemoryJournal(compact_threshold=8)
    for i in range(20):
        j.append(payload(i))
    assert j.compactions >= 2
    rec = j.recover()
    assert rec.snapshot == payload(19)
    assert len(j) < 20 * len(encode_record(0, payload(0)))


def test_memory_journal_rejects_tiny_compact_threshold():
    with pytest.raises(ValueError):
        MemoryJournal(compact_threshold=1)


# ----------------------------------------------------------------------
# FileJournal
# ----------------------------------------------------------------------
def test_file_journal_roundtrip(tmp_path):
    path = tmp_path / "alps.journal"
    j = FileJournal(str(path), fsync=False)
    for i in range(5):
        j.append(payload(i))
    j.close()
    # A fresh handle (the restarted controller) recovers the tail.
    j2 = FileJournal(str(path), fsync=False)
    rec = j2.recover()
    assert rec.snapshot == payload(4)
    # And keeps sequence numbers advancing past everything on disk.
    j2.append(payload(5))
    rec2 = j2.recover()
    assert rec2.last_seq > rec.last_seq
    assert rec2.snapshot == payload(5)
    j2.close()


def test_file_journal_recovers_after_torn_tail(tmp_path):
    path = tmp_path / "alps.journal"
    j = FileJournal(str(path), fsync=False)
    for i in range(3):
        j.append(payload(i))
    j.close()
    with open(path, "ab") as fh:
        fh.write(b"ALPSJ1 3 deadbeef {\"tor")  # crash mid-write
    j2 = FileJournal(str(path), fsync=False)
    rec = j2.recover()
    assert rec.snapshot == payload(2)
    assert rec.discarded_bytes > 0
    j2.close()


# ----------------------------------------------------------------------
# Checkpoints and deltas
# ----------------------------------------------------------------------
def checkpoint(rows: int = 3) -> dict:
    """A payload shaped like a driver's ``snapshot_state()``."""
    return {
        "v": 1,
        "kind": "snapshot",
        "t": 0,
        "core": {
            "count": 0,
            "tc": 100,
            "cycles": 0,
            "due": [],
            "subjects": [[sid, 1, 1.0, 1, 0, 0, 0, 0] for sid in range(rows)],
        },
        "agent": {
            "last_read": {str(sid): 0 for sid in range(rows)},
            "stopped": [],
            "debt": {},
        },
    }


def delta(count: int, sid: int = 0, *, stopped=None, debt=None) -> dict:
    """What ``journal_quantum`` writes for a quantum that measured ``sid``."""
    agent = {
        "last_read": {sid: 10 * count},
        "stopped": stopped if stopped is not None else {},
    }
    if debt:
        agent["debt"] = debt
    return {
        "t": count,
        "core": {
            "count": count,
            "tc": 100 - count,
            "cycles": 0,
            "due": [sid],
            "subjects": [[sid, 1, 1.0 - count / 8, 1, count + 1, count, 0, count]],
        },
        "agent": agent,
    }


def test_delta_line_has_its_own_magic():
    assert encode_delta(7, delta(1)).startswith(b"ALPSD1 7 ")


def test_recovery_folds_the_chain_onto_the_newest_checkpoint():
    data = (
        encode_record(0, checkpoint())
        + encode_delta(1, delta(1, sid=0))
        + encode_delta(2, delta(2, sid=2, stopped={1: True, 2: True}))
        + encode_delta(3, delta(3, sid=0, stopped={2: False}, debt={0: 40}))
    )
    rec = recover_journal(data)
    assert (rec.records, rec.last_seq, rec.high_seq) == (4, 3, 3)
    snap = rec.snapshot
    assert snap["t"] == 3
    assert (snap["core"]["count"], snap["core"]["tc"]) == (3, 97)
    assert snap["core"]["due"] == [0]
    # Rows are replaced by sid, in place: order is schedule-relevant.
    assert [row[0] for row in snap["core"]["subjects"]] == [0, 1, 2]
    assert snap["core"]["subjects"][0][7] == 3
    assert snap["core"]["subjects"][1] == [1, 1, 1.0, 1, 0, 0, 0, 0]
    assert snap["core"]["subjects"][2][7] == 2
    assert snap["agent"]["last_read"] == {"0": 30, "1": 0, "2": 20}
    assert snap["agent"]["stopped"] == [1]
    assert snap["agent"]["debt"] == {"0": 40}
    # Debt rides whole: a delta without it means nothing is owed.
    rec = recover_journal(data + encode_delta(4, delta(4)))
    assert rec.snapshot["agent"]["debt"] == {}


def test_delta_is_never_applied_across_a_missing_seq():
    data = (
        encode_record(0, checkpoint())
        + encode_delta(1, delta(1))
        # seq 2 never reached the store
        + encode_delta(3, delta(3))
        + encode_delta(4, delta(4))
    )
    rec = recover_journal(data)
    assert rec.snapshot == recover_journal(data[: data.index(b"ALPSD1 3 ")]).snapshot
    assert rec.snapshot["core"]["count"] == 1
    assert rec.last_seq == 1
    # The stranded deltas still count as seen: appends number past them.
    assert rec.high_seq == 4
    assert rec.records == 4


def test_delta_without_any_checkpoint_recovers_nothing():
    rec = recover_journal(encode_delta(0, delta(1)) + encode_delta(1, delta(2)))
    assert rec.snapshot is None
    assert (rec.last_seq, rec.high_seq, rec.records) == (-1, 1, 2)


def test_newer_checkpoint_supersedes_the_older_chain():
    newer = checkpoint()
    newer["core"]["count"] = 50
    data = (
        encode_record(0, checkpoint())
        + encode_delta(1, delta(1))
        + encode_record(2, newer)
        + encode_delta(3, delta(51))
    )
    rec = recover_journal(data)
    assert rec.snapshot["core"]["count"] == 51
    assert rec.last_seq == 3


def test_undecodable_record_with_a_valid_crc_yields_no_snapshot():
    """Damage the checksum cannot model (a writer bug, a forged line):
    nothing is built on it, and the driver takes the lossy path."""
    data = encode_record(0, checkpoint()) + encode_delta(1, {"t": 1})
    assert recover_journal(data).snapshot is None


def test_v1_full_snapshot_journal_still_recovers():
    """A journal as written before deltas existed: one full snapshot per
    line, framed by hand here exactly as the old writer framed it."""
    import json
    import zlib

    payloads = []
    lines = []
    for seq in range(5):
        payload = checkpoint()
        payload["core"]["count"] = seq
        payloads.append(payload)
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(f"{seq} {body}".encode())
        lines.append(f"ALPSJ1 {seq} {crc:08x} {body}\n".encode())
    rec = recover_journal(b"".join(lines))
    assert rec.records == 5
    assert rec.snapshot == payloads[-1]
    # And a checkpoint is still framed byte for byte the same way.
    assert [encode_record(i, p) for i, p in enumerate(payloads)] == lines


def test_store_asks_for_a_checkpoint_first_and_after_a_long_chain():
    j = MemoryJournal()
    assert j.needs_checkpoint
    j.append(checkpoint())
    for i in range(MAX_DELTA_CHAIN):
        assert not j.needs_checkpoint
        j.append_delta(delta(i + 1))
    assert j.needs_checkpoint
    j.append(checkpoint())
    assert not j.needs_checkpoint


@pytest.mark.parametrize("fate", [LOST, TORN])
@pytest.mark.parametrize("kind", ["checkpoint", "delta"])
def test_store_asks_for_a_checkpoint_after_a_failed_append(fate, kind):
    fail = [False]
    hook = scripted_faults(
        lambda: fate if fail[0] else None, keep=lambda size: size // 2
    )
    j = MemoryJournal(fault_hook=hook)
    j.append(checkpoint())
    j.append_delta(delta(1))
    good = recover_journal(j.data)
    fail[0] = True
    if kind == "delta":
        j.append_delta(delta(2))
    else:
        j.append(checkpoint())
    fail[0] = False
    assert j.needs_checkpoint
    # The failed append cost nothing but itself ...
    after = recover_journal(j.data)
    assert (after.snapshot, after.last_seq) == (good.snapshot, good.last_seq)
    # ... and the next record, a checkpoint, is the recovery point again.
    newer = checkpoint()
    newer["core"]["count"] = 9
    j.append(newer)
    assert not j.needs_checkpoint
    assert recover_journal(j.data).snapshot == newer


def test_compaction_folds_the_chain_into_one_checkpoint():
    j = MemoryJournal(compact_threshold=4)
    j.append(checkpoint())
    j.append_delta(delta(1))
    j.append_delta(delta(2, sid=1))
    before = recover_journal(j.data)
    j.append_delta(delta(3, sid=2))  # 4th append: compacts
    assert j.compactions == 1
    assert j.data.count(b"\n") == 1 and j.data.startswith(b"ALPSJ1 3 ")
    after = recover_journal(j.data)
    assert after.snapshot["core"]["count"] == 3
    assert after.last_seq == before.last_seq + 1
    # The chain carries on across the compaction.
    assert not j.needs_checkpoint
    j.append_delta(delta(4))
    assert recover_journal(j.data).snapshot["core"]["count"] == 4


# ----------------------------------------------------------------------
# FileJournal: short writes
# ----------------------------------------------------------------------
def test_file_journal_retries_a_short_write_once(tmp_path, monkeypatch):
    import os

    real_write = os.write
    calls = []

    def short_once(fd, data):
        calls.append(len(data))
        if len(calls) == 1:
            return real_write(fd, data[:10])
        return real_write(fd, data)

    j = FileJournal(str(tmp_path / "alps.journal"), fsync=False)
    monkeypatch.setattr(os, "write", short_once)
    j.append(payload(0))
    monkeypatch.undo()
    assert calls == [calls[0], calls[0] - 10]  # the remainder, once
    assert not j.needs_checkpoint  # it landed whole after all
    assert j.recover().snapshot == payload(0)
    j.close()


def test_file_journal_surfaces_a_write_that_stays_short(tmp_path, monkeypatch):
    import os

    real_write = os.write
    j = FileJournal(str(tmp_path / "alps.journal"), fsync=False)
    j.append(checkpoint())
    j.append_delta(delta(1))
    assert not j.needs_checkpoint
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
    with pytest.raises(OSError, match="short journal write"):
        j.append_delta(delta(2))
    monkeypatch.undo()
    # The writer knows: its next record must stand alone.
    assert j.needs_checkpoint
    assert recover_journal(j._read()).snapshot["core"]["count"] == 1
    newer = checkpoint()
    newer["core"]["count"] = 9
    j.append(newer)  # lands on the torn line; salvage finds it
    assert j.recover().snapshot == newer
    j.close()


def test_file_journal_write_error_also_forces_a_checkpoint(tmp_path, monkeypatch):
    import os

    def enospc(fd, data):
        raise OSError(28, "No space left on device")

    j = FileJournal(str(tmp_path / "alps.journal"), fsync=False)
    j.append(checkpoint())
    monkeypatch.setattr(os, "write", enospc)
    with pytest.raises(OSError):
        j.append_delta(delta(1))
    monkeypatch.undo()
    assert j.needs_checkpoint
    j.close()


def test_file_journal_reopened_numbers_past_stranded_deltas(tmp_path):
    path = tmp_path / "alps.journal"
    path.write_bytes(
        encode_record(0, checkpoint())
        + encode_delta(1, delta(1))
        + encode_delta(5, delta(5))  # bit rot ate 2..4
    )
    j = FileJournal(str(path), fsync=False)
    assert j.needs_checkpoint  # a fresh handle never extends an old chain
    newer = checkpoint()
    newer["core"]["count"] = 6
    j.append(newer)
    rec = j.recover()
    assert rec.snapshot == newer
    assert rec.last_seq == 6
    j.close()


# ----------------------------------------------------------------------
# The recovery-payload decoder both drivers share
# ----------------------------------------------------------------------
def recovery_payload(agent) -> dict:
    core = AlpsCore({1: 2, 2: 3}, 10_000)
    core.count = 9
    return {"v": 1, "core": core_snapshot(core), "agent": agent}


def test_restore_state_decodes_maps_stop_set_and_epoch():
    core = AlpsCore({1: 1}, 10_000)
    state = restore_state(
        core,
        recovery_payload({
            "last_read": {"5": 100},
            "debt": {"1": 0, "2": 7},
            "stopped": [5],
            "epoch": 3,
        }),
        ("last_read", "cumulative", "debt"),
    )
    assert state == {
        "last_read": {5: 100},
        "cumulative": {},
        "debt": {2: 7},
        "stopped": {5},
        "epoch": 3,
    }
    assert core.count == 9 and set(core.subjects) == {1, 2}


@pytest.mark.parametrize(
    "agent",
    [
        [],
        {"last_read": []},
        {"last_read": {"x": 1}},
        {"debt": {"1": "lots"}},
        {"stopped": 5},
        {"epoch": "soon"},
    ],
)
def test_restore_state_rejects_a_malformed_agent_section(agent):
    core = AlpsCore({1: 1}, 10_000)
    with pytest.raises(JournalCorruptError):
        restore_state(core, recovery_payload(agent), ("last_read", "debt"))
    assert core.count == 0 and set(core.subjects) == {1}  # untouched
