"""Property tests: journal recovery under arbitrary damage.

The torn-write claim, stated as properties rather than examples:

* truncating a journal at *any* byte offset — the exact crash model of
  an interrupted ``write(2)`` — never raises, never yields a payload
  that was not appended, and loses at most the final record;
* arbitrary byte corruption (Hypothesis-driven) never raises and never
  yields a forged payload: whatever recovery returns passed a CRC, so
  it is something that was actually appended.

Both hold for journals of checkpoints alone and for checkpoint + delta
journals; for the latter "a payload that was appended" means the state
as of some appended record, and the state as of a record is only
reachable if every record back to its checkpoint survived.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.resilience.journal import (
    encode_delta,
    encode_record,
    recover_journal,
)


def build_journal(n: int) -> tuple[bytes, list[dict]]:
    payloads = [{"kind": "snapshot", "n": i, "tc": i * 17} for i in range(n)]
    data = b"".join(encode_record(i, p) for i, p in enumerate(payloads))
    return data, payloads


def test_truncation_at_every_byte_offset_is_lossless_up_to_one_record():
    """Exhaustive: every possible torn-tail length of a 6-record journal."""
    data, payloads = build_journal(6)
    record_ends = []
    pos = 0
    for i in range(6):
        pos += len(encode_record(i, payloads[i]))
        record_ends.append(pos)
    for cut in range(len(data) + 1):
        rec = recover_journal(data[:cut])
        # Records wholly inside the prefix survive; the one the cut
        # tears is the only loss.
        complete = sum(1 for end in record_ends if end <= cut)
        assert rec.records == complete
        if complete:
            assert rec.snapshot == payloads[complete - 1]
            assert rec.last_seq == complete - 1
        else:
            assert rec.snapshot is None
            assert rec.last_seq == -1


@given(
    n=st.integers(min_value=1, max_value=8),
    cut=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_truncated_journal_recovers_a_real_payload(n: int, cut: int):
    data, payloads = build_journal(n)
    rec = recover_journal(data[: min(cut, len(data))])
    if rec.snapshot is not None:
        assert rec.snapshot in payloads
        assert rec.snapshot == payloads[rec.last_seq]


@given(
    n=st.integers(min_value=1, max_value=6),
    edits=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=255),
        ),
        max_size=8,
    ),
)
@settings(max_examples=80, deadline=None)
def test_arbitrary_corruption_never_raises_or_forges(n: int, edits):
    """Bit rot anywhere in the journal: recovery stays total and honest."""
    data, payloads = build_journal(n)
    buf = bytearray(data)
    for offset, value in edits:
        if buf:
            buf[offset % len(buf)] = value
    rec = recover_journal(bytes(buf))
    if rec.snapshot is not None:
        # A surviving CRC means the record is genuine, byte for byte.
        assert rec.snapshot in payloads
    assert rec.valid_bytes + rec.discarded_bytes == len(buf)


@given(
    n=st.integers(min_value=2, max_value=6),
    torn_index=st.integers(min_value=0, max_value=5),
    keep=st.integers(min_value=1, max_value=80),
)
@settings(max_examples=60, deadline=None)
def test_mid_journal_torn_append_loses_only_that_record(
    n: int, torn_index: int, keep: int
):
    """A torn append *between* intact appends (the fault injector's torn
    write: later appends land after the partial bytes, on the same
    line).  Salvage recovery must still reach the newest record."""
    torn_index %= n
    payloads = [{"kind": "snapshot", "n": i} for i in range(n)]
    parts = []
    for i, p in enumerate(payloads):
        encoded = encode_record(i, p)
        if i == torn_index:
            encoded = encoded[: min(keep, len(encoded) - 1)]  # drop newline
        parts.append(encoded)
    rec = recover_journal(b"".join(parts))
    if torn_index == n - 1:
        assert rec.snapshot == payloads[n - 2]
    else:
        assert rec.snapshot == payloads[n - 1]
        assert rec.last_seq == n - 1


# ----------------------------------------------------------------------
# Checkpoint + delta journals
# ----------------------------------------------------------------------
SIDS = 4


def build_delta_journal(kinds: list[bool]) -> tuple[list[bytes], list[dict]]:
    """One record per entry of ``kinds`` (True = checkpoint; the first
    always is), and the full state as of each record."""
    state = {
        "v": 1,
        "kind": "snapshot",
        "t": 0,
        "core": {
            "count": 0,
            "tc": 1000,
            "cycles": 0,
            "due": [],
            "subjects": [[sid, 1, 1.0, 1, 0, 0, 0, 0] for sid in range(SIDS)],
        },
        "agent": {
            "last_read": {str(sid): 0 for sid in range(SIDS)},
            "stopped": [],
            "debt": {},
        },
    }
    records, states = [], []
    for seq, is_checkpoint in enumerate(kinds):
        sid = seq % SIDS
        stopped = set(state["agent"]["stopped"]) ^ {sid}
        row = [sid, 1, 1.0 - seq / 16, 1, seq + 1, 7 * seq, 0, seq]
        state = json.loads(json.dumps(state))
        state["t"] = seq
        state["core"].update(count=seq, tc=1000 - seq, due=[sid])
        state["core"]["subjects"][sid] = row
        state["agent"]["last_read"][str(sid)] = 7 * seq
        state["agent"]["stopped"] = sorted(stopped)
        states.append(state)
        if is_checkpoint or seq == 0:
            records.append(encode_record(seq, state))
        else:
            records.append(
                encode_delta(
                    seq,
                    {
                        "t": seq,
                        "core": {
                            "count": seq,
                            "tc": 1000 - seq,
                            "cycles": 0,
                            "due": [sid],
                            "subjects": [row],
                        },
                        "agent": {
                            "last_read": {sid: 7 * seq},
                            "stopped": {sid: sid in stopped},
                        },
                    },
                )
            )
    return records, states


def reachable(kinds: list[bool], present: list[bool]) -> int:
    """Index of the recovery point when only ``present`` records
    survive: the newest surviving checkpoint plus the unbroken run of
    deltas right after it (-1 if no checkpoint survives)."""
    point = -1
    chain_open = False
    for seq, (is_checkpoint, here) in enumerate(zip(kinds, present)):
        if is_checkpoint or seq == 0:
            if here:
                point, chain_open = seq, True
        elif chain_open and here and point == seq - 1:
            point = seq
        else:
            chain_open = chain_open and here
    return point


kinds_strategy = st.lists(st.booleans(), min_size=1, max_size=12)


@given(kinds=kinds_strategy)
@settings(max_examples=25, deadline=None)
def test_delta_journal_truncated_at_every_byte_offset(kinds):
    records, states = build_delta_journal(kinds)
    data = b"".join(records)
    ends = []
    pos = 0
    for record in records:
        pos += len(record)
        ends.append(pos)
    for cut in range(len(data) + 1):
        rec = recover_journal(data[:cut])
        complete = sum(1 for end in ends if end <= cut)
        # Every record wholly inside the prefix has its whole chain
        # inside it too: a torn tail costs the torn record, no more.
        assert rec.records == complete
        assert rec.last_seq == rec.high_seq == complete - 1
        assert rec.snapshot == (states[complete - 1] if complete else None)


@given(
    kinds=kinds_strategy,
    edits=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100_000),
            st.integers(min_value=0, max_value=255),
        ),
        max_size=8,
    ),
)
@settings(max_examples=80, deadline=None)
def test_delta_journal_corruption_never_raises_or_forges(kinds, edits):
    records, states = build_delta_journal(kinds)
    buf = bytearray(b"".join(records))
    for offset, value in edits:
        buf[offset % len(buf)] = value
    rec = recover_journal(bytes(buf))
    assert rec.valid_bytes + rec.discarded_bytes == len(buf)
    if rec.snapshot is not None:
        # Not merely *a* state that was written: the state as of the
        # very record recovery says it reached.
        assert rec.snapshot == states[rec.last_seq]


@given(kinds=kinds_strategy, data=st.data())
@settings(max_examples=80, deadline=None)
def test_delta_is_never_applied_over_a_seq_gap(kinds, data):
    """Drop any subset of whole records (a lost append leaves no bytes,
    only a hole in the numbering): recovery lands exactly on the newest
    checkpoint's unbroken chain, never on a state past a hole."""
    records, states = build_delta_journal(kinds)
    present = data.draw(
        st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds))
    )
    rec = recover_journal(
        b"".join(r for r, here in zip(records, present) if here)
    )
    point = reachable(kinds, present)
    assert rec.last_seq == point
    assert rec.snapshot == (states[point] if point >= 0 else None)
    assert rec.high_seq == max(
        (seq for seq, here in enumerate(present) if here), default=-1
    )
