"""Write-ahead journaling of agent scheduling state.

An ALPS driver's whole worth is the state it accumulates mid-cycle:
per-subject allowances (fairness debt), the cycle position ``tc``, the
eligibility partition, the measurement-postponement indices, and the
progress-read baselines.  PR 1's crash recovery re-baselines all of it,
which silently forfeits the debt.  This module makes that state durable:
each quantum the driver appends one record to a journal, and a
restarted driver replays the journal to resume the same cycle.

The journal is a checkpoint + redo log.  The paper's §3 optimisation
measures only the subjects that could have used up their allowance, so
a plain quantum changes one to three subject rows; writing the whole
state for it would cost more than the quantum itself.  Two record
kinds, one line each::

    ALPSJ1 <seq> <crc32-hex8> <canonical-json-payload>\\n     checkpoint
    ALPSD1 <seq> <crc32-hex8> <canonical-json-delta>\\n       delta

* a *checkpoint* is self-contained: the driver's full
  ``snapshot_state()`` (or any payload a caller hands
  :meth:`MemoryJournal.append`).  It is the only kind the previous
  format knew, so a journal written before deltas existed is a journal
  of checkpoints and recovers unchanged;
* a *delta* holds the new absolute values of what one plain quantum
  touched (:func:`journal_quantum`) and means something only on top of
  the record before it;
* ``seq`` is strictly increasing and consumed by every *attempted*
  append, so a stale record can never shadow a newer one and a lost
  append leaves a visible gap;
* the CRC covers ``"<seq> <payload>"``, so a torn or bit-flipped record
  fails closed;
* the payload is compact sorted-keys JSON, so equal state journals to
  equal bytes.

The writer (:func:`journal_quantum` with the store's
``needs_checkpoint``) writes a checkpoint instead of a delta whenever
the delta would not be enough or would not be safe: no checkpoint yet,
a cycle completion or membership-grade change (every row moves), a
chain of :data:`MAX_DELTA_CHAIN` deltas, and — the rule that keeps
recovery as good as a journal of full snapshots — whenever the previous
append did not land whole *as far as the writer can tell* (the fault
hook swallowed or shortened it, ``write(2)`` came back short or
raised).  So every record that lands has an unbroken chain behind it,
and the newest whole record is always recoverable.

Recovery (:func:`recover_journal`) scans forward and *salvages*: a
damaged line — a torn tail, a corrupt CRC, interleaved garbage — is
skipped, and scanning resynchronises on the next record magic.  Each
append is an independent fsync'd operation, so a record whose CRC and
sequence number check out is trustworthy regardless of earlier damage;
stopping at the first bad line (the classic single-writer WAL rule)
would let one torn mid-run append shadow every later record.  A torn
record also eats its newline, merging with the next append onto one
line, so resynchronisation looks *inside* damaged lines for a record
suffix.  Every line is CRC-checked, but only the recovery point is
decoded: the newest whole checkpoint folded with the deltas that follow
it at consecutive sequence numbers.  A delta is never applied across a
missing ``seq`` — damage the writer could not see (bit rot under a
delta) costs the records after it up to the next checkpoint, nothing
more.

Two journal stores implement the same append surface:

* :class:`MemoryJournal` — deterministic in-memory bytes for the
  simulator, with an injectable fault hook so
  :class:`~repro.faults.injector.FaultInjector` can drop or tear writes.
  It keeps each :func:`journal_quantum` delta in the compact form the
  writer captured and encodes it only when its bytes are read, since
  nobody reads them unless the agent crashes;
* :class:`FileJournal` — a real ``O_APPEND`` + ``fsync`` file for
  :class:`~repro.hostos.controller.HostAlps`, compacted atomically
  (write-temp + ``os.replace``) once it accumulates enough superseded
  records.
"""

from __future__ import annotations

import errno
import json
import marshal
import os
import zlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Iterable,
    Mapping,
    MutableMapping,
    Optional,
)

from repro.alps.state import Eligibility, SubjectState
from repro.errors import JournalCorruptError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alps.algorithm import AlpsCore

#: Magic prefix of a checkpoint record (and of every version-1 record).
MAGIC = b"ALPSJ1"

#: Magic prefix of a delta record.
DELTA_MAGIC = b"ALPSD1"

#: What both magics start with: where salvage looks for a record suffix
#: inside a damaged line.
_SYNC = b"ALPS"

#: Deltas allowed on top of one checkpoint before the writer starts a
#: new one.  Bounds what damage under a delta can cost and how much a
#: recovery folds; plain quanta outnumber cycle completions by more than
#: this only for large share totals.
MAX_DELTA_CHAIN = 64

#: Version stamp inside every snapshot payload.  Bump on incompatible
#: payload layout changes; recovery rejects other versions as corrupt.
SNAPSHOT_VERSION = 1

#: :meth:`WriteFaults.verdict` values for an append that does not land whole.
LOST = "lost"
TORN = "torn"

_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _encode(magic: bytes, seq: int, payload: Mapping[str, Any]) -> bytes:
    body = _dumps(payload).encode()
    crc = zlib.crc32(body, zlib.crc32(b"%d " % seq))
    return b"%b %d %08x %b\n" % (magic, seq, crc, body)


def encode_record(seq: int, payload: Mapping[str, Any]) -> bytes:
    """One checkpoint line for ``payload`` at sequence number ``seq``."""
    return _encode(MAGIC, seq, payload)


def encode_delta(seq: int, delta: Mapping[str, Any]) -> bytes:
    """One delta line at sequence number ``seq``."""
    return _encode(DELTA_MAGIC, seq, delta)


_ELIGIBLE = Eligibility.ELIGIBLE


def _row_fields(st: "SubjectState") -> tuple:
    """A subject's journaled fields: its checkpoint row without the sid."""
    return (
        st.share,
        st.allowance,
        1 if st.state is _ELIGIBLE else 0,
        st.update,
        st.consumed_this_cycle,
        st.blocked_quanta_this_cycle,
        st.measurements,
    )


#: Fields per captured subject row.
_ROW = len(_row_fields(SubjectState(share=1, allowance=0.0)))


def _captured_delta(record: list) -> dict:
    """The delta dict a :func:`journal_quantum` capture stands for.

    ``record`` is ``[seq, t, count, tc, cycles, ndue, *due, *rows,
    *sections]``: the :func:`_row_fields` of each due sid, then for
    each agent section its name, its entry count and its keys and
    values, interleaved.  The dict equals, key for key and value for
    value, the one the writer would have built, so it encodes to the
    same bytes.
    """
    ndue = record[5]
    end = 6 + ndue
    due = record[6:end]
    i = end + _ROW * ndue
    rows = [[sid, *record[j : j + _ROW]] for sid, j in zip(due, range(end, i, _ROW))]
    agent = {}
    size = len(record)
    while i < size:
        name, n = record[i], record[i + 1]
        i += 2
        j = i + 2 * n
        agent[name] = dict(zip(record[i:j:2], record[i + 1 : j : 2]))
        i = j
    return {
        "t": record[1],
        "core": {
            "count": record[2],
            "tc": record[3],
            "cycles": record[4],
            "due": due,
            "subjects": rows,
        },
        "agent": agent,
    }


def _encoded(record: Any) -> bytes:
    """A record's bytes: as given, or encoded from its capture."""
    if type(record) is list:
        return encode_delta(record[0], _captured_delta(record))
    return record


def _unpack(held: bytes) -> Any:
    """A record as :class:`MemoryJournal` holds it, back in the form it
    was appended in.  An encoded line, or what a torn write left of
    one, is held as it is and starts with the magic's ``A``; a capture
    is held marshalled, which starts with marshal's list code ``[``."""
    return held if held[:1] == b"A" else marshal.loads(held)


def _decode_line(line: bytes) -> Optional[tuple[bool, int, bytes]]:
    """Check one line's framing and CRC without decoding its payload.

    Returns ``(is_delta, seq, body)``, or None if the line is damaged.
    """
    parts = line.split(b" ", 3)
    if len(parts) != 4:
        return None
    magic = parts[0]
    if magic != MAGIC and magic != DELTA_MAGIC:
        return None
    try:
        seq = int(parts[1])
        crc = int(parts[2], 16)
    except ValueError:
        return None
    body = parts[3]
    if zlib.crc32(body, zlib.crc32(b"%d " % seq)) != crc:
        return None
    return magic == DELTA_MAGIC, seq, body


@dataclass(slots=True, frozen=True)
class RecoveredJournal:
    """Outcome of scanning a journal's bytes.

    Attributes:
        snapshot: the recovery point's payload — the newest whole
            checkpoint with its gap-free delta chain folded in (None if
            no checkpoint survived: an empty or fully torn journal).
        last_seq: sequence number of the newest record folded into
            ``snapshot`` (-1 if none).
        high_seq: highest sequence number on any valid record; differs
            from ``last_seq`` only when a delta survived past a gap.
            New appends must number past it.
        records: valid records found.
        valid_bytes: bytes occupied by salvaged records.
        discarded_bytes: damaged or stale bytes skipped while scanning.
    """

    snapshot: Optional[dict]
    last_seq: int
    high_seq: int
    records: int
    valid_bytes: int
    discarded_bytes: int


def _salvage_line(
    line: bytes, high_seq: int
) -> Optional[tuple[bool, int, bytes, int]]:
    """Check ``line``, resynchronising past damage if necessary.

    A torn record loses its trailing newline, so the *next* good append
    lands on the same line after the torn bytes.  When the line as a
    whole fails its check, retry from each record magic inside it — a
    valid CRC'd record suffix is trustworthy whatever precedes it.
    Returns ``(is_delta, seq, body, start_offset_in_line)`` or ``None``.
    """
    decoded = _decode_line(line)
    start = 0
    while decoded is None:
        idx = line.find(_SYNC, start + 1)
        if idx < 0:
            return None
        decoded = _decode_line(line[idx:])
        start = idx
    if decoded[1] <= high_seq:
        return None  # stale or replayed record can never shadow newer state
    return (*decoded, start)


def _apply_delta(snapshot: dict, delta: dict, row_of: Mapping[int, int]) -> None:
    """Fold one :func:`journal_quantum` delta into ``snapshot``, in place.

    The delta mirrors the checkpoint's layout, so most of it is a keyed
    overwrite; the two exceptions are the stop-set (a sorted list in the
    checkpoint, pid → stopped? here) and the debt map (carried whole,
    absent when nothing is owed).
    """
    snapshot["t"] = delta["t"]
    core = snapshot["core"]
    changed = delta["core"]
    rows = core["subjects"]
    for row in changed.pop("subjects"):
        rows[row_of[row[0]]] = row
    core.update(changed)
    agent = snapshot["agent"]
    changed = delta["agent"]
    stopped = set(agent["stopped"])
    for pid, is_stopped in changed.pop("stopped").items():
        if is_stopped:
            stopped.add(int(pid))
        else:
            stopped.discard(int(pid))
    agent["stopped"] = sorted(stopped)
    agent["debt"] = changed.pop("debt", {})
    for name, entries in changed.items():
        agent[name].update(entries)


def _fold(base: bytes, chain: list[bytes]) -> Optional[dict]:
    """Decode a checkpoint body and fold its delta chain into it.

    None when a CRC-valid record does not decode to what its kind
    promises — damage beyond what the checksum models, so nothing built
    on it is trusted.
    """
    try:
        snapshot = json.loads(base)
        if not isinstance(snapshot, dict):
            return None
        if chain:
            row_of = {
                row[0]: i for i, row in enumerate(snapshot["core"]["subjects"])
            }
            for body in chain:
                _apply_delta(snapshot, json.loads(body), row_of)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError):
        return None
    return snapshot


def recover_journal(data: bytes, *, strict: bool = False) -> RecoveredJournal:
    """Scan ``data`` and return the recovery point.

    Tolerant by default: damaged lines (torn writes, bad CRCs, stale
    sequence numbers) are skipped and scanning resynchronises on the
    next valid record, so one mid-journal torn append costs only the
    records it physically damaged.  ``strict=True`` instead raises
    :class:`~repro.errors.JournalCorruptError` whenever any byte had to
    be discarded — for tooling that must notice damage, not heal it.
    """
    offset = 0
    records = 0
    high_seq = -1
    base: Optional[bytes] = None
    base_seq = -1
    chain: list[bytes] = []
    valid = 0
    size = len(data)
    while offset < size:
        newline = data.find(b"\n", offset)
        if newline < 0:
            break  # torn tail: no terminator, cannot be complete
        salvaged = _salvage_line(data[offset:newline], high_seq)
        if salvaged is not None:
            is_delta, high_seq, body, start = salvaged
            records += 1
            valid += (newline - (offset + start)) + 1
            if not is_delta:
                base, base_seq, chain = body, high_seq, []
            elif base is not None and high_seq == base_seq + len(chain) + 1:
                chain.append(body)
            # else: a delta past a gap.  Sequence numbers only grow, so
            # no later delta can rejoin the chain either.
        offset = newline + 1
    discarded = size - valid
    if strict and discarded:
        raise JournalCorruptError(
            f"{discarded} byte(s) unreadable around "
            f"{records} valid record(s)",
            discarded_bytes=discarded,
        )
    snapshot = _fold(base, chain) if base is not None else None
    return RecoveredJournal(
        snapshot=snapshot,
        last_seq=base_seq + len(chain) if snapshot is not None else -1,
        high_seq=high_seq,
        records=records,
        valid_bytes=valid,
        discarded_bytes=discarded,
    )


class WriteFaults:
    """The write faults a plan puts on one journal, as its fault hook.

    Each append is lost with probability ``lost_p``, torn at a random
    byte with probability ``torn_p``, and lands whole otherwise; ``note``
    hears of every fault as ``(kept, size)``, ``kept`` None for a lost
    write.  One rule for every owner (the injector, the plane's cells):
    :meth:`for_plan` builds the hook only for a plan that can lose or
    tear a write, and the hook draws an append's :meth:`verdict` before
    it asks for the record's bytes, so a :class:`MemoryJournal` encodes
    only a lost or torn append at once.  It draws once per append from
    ``stream`` (``random()``), and once more for a torn append's cut
    (``integers(0, size - 1)``, plus one, is the bytes kept); tests and
    tools script the fates with a stand-in stream.
    """

    __slots__ = ("lost_p", "torn_p", "_stream", "_note")

    def __init__(
        self,
        lost_p: float,
        torn_p: float,
        stream: Any,
        note: Callable[[Optional[int], int], None],
    ) -> None:
        self.lost_p = lost_p
        self.torn_p = torn_p
        self._stream = stream
        self._note = note

    @classmethod
    def for_plan(
        cls,
        plan: Any,
        rng: Any,
        stream: str,
        note: Callable[[Optional[int], int], None],
    ) -> Optional["WriteFaults"]:
        """The hook for ``plan``'s journal write-fault rates, drawing
        from ``rng``'s named ``stream``; None (and no stream made) when
        the plan has none."""
        lost_p = plan.journal_write_fail_prob
        torn_p = plan.journal_torn_write_prob
        if lost_p <= 0 and torn_p <= 0:
            return None
        return cls(lost_p, torn_p, rng.stream(stream), note)

    def verdict(self) -> Optional[str]:
        """Draw one append's fate: None (whole), :data:`LOST` or :data:`TORN`."""
        draw = self._stream.random()
        if draw < self.lost_p:
            return LOST
        if draw < self.lost_p + self.torn_p:
            return TORN
        return None

    def damage(self, fate: str, encoded: bytes) -> Optional[bytes]:
        """What of ``encoded`` reaches the store under ``fate``."""
        size = len(encoded)
        if fate == LOST:
            self._note(None, size)
            return None
        cut = 1 + int(self._stream.integers(0, max(1, size - 1)))
        self._note(cut, size)
        return encoded[:cut]


class _Journal:
    """The append surface and checkpoint rule both stores share.

    A store supplies ``_write`` (put one encoded record, say whether it
    landed whole), ``_read`` (all bytes) and ``_replace`` (swap the
    contents for one record, atomically).
    """

    def __init__(self, compact_threshold: int) -> None:
        if compact_threshold < 2:
            raise ValueError("compact_threshold must be >= 2")
        self.compact_threshold = compact_threshold
        self._seq = 0
        #: Deltas written since the last checkpoint, all landed whole;
        #: -1 when there is nothing a delta could safely build on.
        self._chain = -1
        #: Appends attempted (including ones a fault swallowed).
        self.appends = 0
        #: Times the journal rewrote itself down to the recovery point.
        self.compactions = 0

    @property
    def needs_checkpoint(self) -> bool:
        """Whether the next record must be self-contained."""
        return not 0 <= self._chain < MAX_DELTA_CHAIN

    def append(self, payload: Mapping[str, Any]) -> None:
        """Append one checkpoint (write-ahead: call before enacting).

        ``payload`` is any self-contained mapping; it is the recovery
        point for as long as it is the newest checkpoint.
        """
        self._put(encode_record(self._seq, payload), 0)

    def append_delta(self, delta: Mapping[str, Any]) -> None:
        """Append one :func:`journal_quantum` delta on the record before."""
        self._put(encode_delta(self._seq, delta), self._chain + 1)

    def _put(self, record: Any, chain: int) -> None:
        self._seq += 1
        self.appends += 1
        self._chain = -1  # stays so if the write raises or lands short
        if self._write(record):
            self._chain = chain
        if self.appends % self.compact_threshold == 0:
            self.compact()

    def compact(self) -> None:
        """Drop superseded records: keep the recovery point, folded
        into one checkpoint."""
        rec = recover_journal(self._read())
        if rec.snapshot is None:
            return
        self._replace(encode_record(rec.last_seq, rec.snapshot))
        self.compactions += 1

    def recover(self, *, strict: bool = False) -> RecoveredJournal:
        """Recovery point of the current contents."""
        rec = recover_journal(self._read(), strict=strict)
        # Appends after a recovery must keep sequence numbers advancing
        # past anything the store has ever seen.
        if rec.high_seq >= self._seq:
            self._seq = rec.high_seq + 1
        return rec

    def _write(self, record: Any) -> bool:
        """Store one record: encoded bytes, or a delta as
        :func:`journal_quantum` captured it, which the store may encode
        whenever it likes before it is read."""
        raise NotImplementedError

    def _read(self) -> bytes:
        raise NotImplementedError

    def _replace(self, encoded: bytes) -> None:
        raise NotImplementedError


class MemoryJournal(_Journal):
    """Deterministic in-memory journal for the simulated agent.

    Models persistent storage that survives the agent's crash (the
    object outlives :meth:`AlpsAgent.restart`).  ``fault_hook`` lets the
    fault injector lose or tear individual appends — one verdict per
    append, whatever the record kind; everything else is exact, so a
    journal without faults is byte-reproducible for equal schedules.

    A captured delta that lands whole is held marshalled — a flat list
    of ints, floats, bools and names packs to about the size of its
    JSON, in one object the garbage collector never tracks — until the
    bytes are read (:attr:`data`, ``len()``, :meth:`recover`,
    :meth:`compact`), which encodes the pending records in append order
    to exactly the bytes an eager store holds.  A delta the hook loses
    or tears is encoded at once, so the hook can measure and cut it.
    """

    def __init__(
        self,
        *,
        fault_hook: Optional[WriteFaults] = None,
        compact_threshold: int = 4096,
    ) -> None:
        super().__init__(compact_threshold)
        self._buf = bytearray()
        #: Records stored since the last read, in order, as held (see
        #: :func:`_unpack`); they follow ``_buf``.
        self._tail: list[bytes] = []
        self.fault_hook = fault_hook

    def _write(self, record: Any) -> bool:
        hook = self.fault_hook
        if hook is not None:
            fate = hook.verdict()
            if fate is not None:
                encoded = _encoded(record)
                faulted = hook.damage(fate, encoded)
                if faulted is None:
                    return False  # write lost before reaching the store
                self._tail.append(faulted)
                return len(faulted) == len(encoded)
        self._tail.append(
            marshal.dumps(record, 2) if type(record) is list else record
        )
        return True

    def _flush(self) -> bytearray:
        tail = self._tail
        if tail:
            self._buf += b"".join([_encoded(_unpack(held)) for held in tail])
            tail.clear()
        return self._buf

    def _read(self) -> bytes:
        return bytes(self._flush())

    def _replace(self, encoded: bytes) -> None:
        self._tail.clear()
        self._buf = bytearray(encoded)

    @property
    def data(self) -> bytes:
        """The raw journal bytes (tests and tooling)."""
        return self._read()

    def __len__(self) -> int:
        return len(self._flush())


class FileJournal(_Journal):
    """fsync'd append-only journal file for the live Linux controller.

    Appends are single ``write(2)`` calls on an ``O_APPEND`` descriptor
    followed by ``fsync`` — the strongest atomicity an unprivileged
    process gets; recovery handles the remaining torn-tail window.
    Compaction rewrites a temp file and ``os.replace``\\ s it over the
    journal, which is atomic on POSIX filesystems.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: bool = True,
        compact_threshold: int = 4096,
    ) -> None:
        super().__init__(compact_threshold)
        self.path = os.fspath(path)
        self.fsync = fsync
        self._seq = recover_journal(self._read()).high_seq + 1
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600
        )

    def _read(self) -> bytes:
        try:
            with open(self.path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def _write_all(self, fd: int, encoded: bytes) -> None:
        """One ``write(2)``; a short count gets the remainder retried once.

        Still short after that is raised like any other ``OSError``: the
        record is not durable, and write-ahead means the decisions it
        encodes must not be enacted as if it were.  ``_put`` armed the
        checkpoint rule before calling, so whatever the driver does
        about the error, its next record is self-contained.
        """
        written = os.write(fd, encoded)
        if written < len(encoded):
            written += os.write(fd, encoded[written:])
        if written < len(encoded):
            raise OSError(
                errno.EIO,
                f"short journal write: {written} of {len(encoded)} bytes",
                self.path,
            )
        if self.fsync:
            os.fsync(fd)

    def _write(self, record: Any) -> bool:
        self._write_all(self._fd, _encoded(record))
        return True

    def _replace(self, encoded: bytes) -> None:
        tmp = self.path + ".compact"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        try:
            self._write_all(fd, encoded)
        finally:
            os.close(fd)
        os.replace(tmp, self.path)
        # Reopen: the O_APPEND descriptor still points at the old inode.
        os.close(self._fd)
        self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "FileJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Snapshot and delta codec (shared by both drivers)
# ---------------------------------------------------------------------------
def _subject_row(sid: int, st: "SubjectState") -> list:
    return [sid, *_row_fields(st)]


def core_snapshot(core: "AlpsCore") -> dict:
    """JSON-safe snapshot of an :class:`AlpsCore`'s scheduling state.

    Subjects are emitted in the core's iteration order — dict order is
    schedule-relevant (``begin_quantum`` walks it), so restore must
    reproduce it exactly.
    """
    return {
        "count": core.count,
        "tc": core.tc,
        "cycles": core.cycles_completed,
        "subjects": [_subject_row(sid, st) for sid, st in core.subjects.items()],
        "due": list(core._last_due),
    }


def state_snapshot(
    core: "AlpsCore",
    t: int,
    stopped: Collection[int],
    maps: Mapping[str, Mapping[int, int]],
    **scalars: int,
) -> dict:
    """The checkpoint payload: everything a restarted driver must not lose.

    ``maps`` are the driver's id-keyed tables by section name (read
    baselines, cumulative totals, outstanding debt, …); keys become
    strings, as JSON would make them, so the payload equals its own
    decoded record.
    """
    agent: dict[str, Any] = {
        name: {str(key): value for key, value in sorted(table.items())}
        for name, table in maps.items()
    }
    agent["stopped"] = sorted(stopped)
    agent.update(scalars)
    return {
        "v": SNAPSHOT_VERSION,
        "kind": "snapshot",
        "t": t,
        "core": core_snapshot(core),
        "agent": agent,
    }


def journal_quantum(
    step: Any,
    t: int,
    due: Iterable[tuple[int, Iterable[int]]],
    measurements: Collection[int],
    full: bool,
    signalled: Collection[int],
) -> None:
    """Append this quantum's record to ``step.journal``: a delta if
    that is enough.

    ``step`` is the driver's :class:`~repro.alps.step.QuantumStep`,
    whose ``journal``, ``core``, ``last_read``, ``cumulative``,
    ``stopped`` and ``debt`` are read and whose ``snapshot(t)`` is the
    checkpoint.  Call after ``complete_quantum`` and before enacting
    its decisions.  ``full`` says the quantum was not a plain measured
    one — it ran the full partition sweep (cycle completion, membership
    or share change, restore) or the driver changed journaled state
    outside measurement since its last record; then, or when the store
    has nothing a delta could safely build on, the record is the
    checkpoint.

    Otherwise the record is captured in O(changed) from what the quantum
    touched: the core scalars, the rows of the due subjects (outside a
    sweep ``complete_quantum`` writes no others, and the drivers
    measure no others), the read baselines of the pids in ``due``
    (``(sid, pids)`` pairs), the cumulative totals of the subjects in
    ``measurements``, and the stop-set membership of ``signalled`` (the
    pids signalled since the previous record).  ``debt`` only ever
    holds the few subjects still repaying an outage, so it rides whole
    while non-empty.  Everything is copied into one flat list of ints,
    floats and names (:func:`_captured_delta` reads it back), so a
    later change to the driver's tables cannot reach a record the store
    has not encoded yet.
    """
    journal = step.journal
    chain = journal._chain
    if full or not 0 <= chain < MAX_DELTA_CHAIN:  # needs_checkpoint, inlined
        journal.append(step.snapshot(t))
        return
    core = step.core
    subjects = core.subjects
    core_due = core._last_due
    record = [
        journal._seq,  # what _put will number it
        t,
        core.count,
        core.tc,
        core.cycles_completed,
        len(core_due),
        *core_due,
    ]
    for sid in core_due:
        record += _row_fields(subjects[sid])
    # Each section is its name, its entry count, then keys and values.
    table = step.last_read
    record += ("last_read", 0)
    at = len(record)
    for _, pids in due:
        for pid in pids:
            if pid in table:
                record += (pid, table[pid])
    record[at - 1] = (len(record) - at) // 2
    table = step.cumulative
    at = len(record) + 1
    record += ("cumulative", len(measurements))
    for sid in measurements:
        if sid in table:
            record += (sid, table[sid])
        else:
            record[at] -= 1
    stopped = step.stopped
    record += ("stopped", len(signalled))
    for pid in signalled:
        record += (pid, pid in stopped)
    debt = step.debt
    if debt:
        record += ("debt", len(debt))
        for item in debt.items():
            record += item
    journal._put(record, chain + 1)


def restore_core(core: "AlpsCore", snap: Mapping[str, Any]) -> None:
    """Restore ``core`` to a :func:`core_snapshot` state, in place.

    The attached cycle log is treated as observed history, not
    scheduling state: records indexed at or past the restored cycle
    count (completed after the snapshot was taken) are dropped so the
    next completion cannot duplicate an index.
    """
    try:
        rows = snap["subjects"]
        count = int(snap["count"])
        tc = int(snap["tc"])
        cycles = int(snap["cycles"])
        due = [int(s) for s in snap.get("due", [])]
        subjects: dict[int, SubjectState] = {}
        total = 0
        for sid, share, allowance, elig, update, consumed, blocked, meas in rows:
            st = SubjectState(share=int(share), allowance=float(allowance))
            st.state = Eligibility.ELIGIBLE if elig else Eligibility.INELIGIBLE
            st.update = int(update)
            st.consumed_this_cycle = int(consumed)
            st.blocked_quanta_this_cycle = int(blocked)
            st.measurements = int(meas)
            subjects[int(sid)] = st
            total += int(share)
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalCorruptError(f"unusable core snapshot: {exc!r}") from exc
    core.subjects = subjects
    core.total_shares = total
    core.count = count
    core.tc = tc
    core.cycles_completed = cycles
    core._last_due = due
    # A restore is a membership-grade change: force the next
    # complete_quantum to run the full partition sweep.
    core._dirty = True
    log = core.cycle_log
    if len(log) > cycles:
        del log.records[cycles:]


def restore_state(
    core: "AlpsCore", payload: Mapping[str, Any], maps: Iterable[str]
) -> dict[str, Any]:
    """Restore ``core`` from a recovered checkpoint; decode the rest.

    The one recovery-payload decoder both drivers use.  Returns the
    ``agent`` section decoded: each table named in ``maps`` as an
    ``{int: int}`` dict (``debt`` without settled entries), the
    stop-set as a ``set[int]`` under ``"stopped"``, and ``"epoch"`` as
    an int when the section has one.  Any shape error — a section or
    table that is not a mapping, a key or value that is not an integer
    — raises :class:`~repro.errors.JournalCorruptError` before ``core``
    is touched, so a caller needs one ``except`` for its fallback.
    """
    validate_snapshot(payload)
    section = payload.get("agent", {})
    if not isinstance(section, Mapping):
        raise JournalCorruptError("snapshot agent section is not a mapping")
    state: dict[str, Any] = {}
    try:
        for name in maps:
            table = section.get(name, {})
            if not isinstance(table, Mapping):
                raise JournalCorruptError(f"snapshot agent.{name} is not a mapping")
            state[name] = {int(key): int(value) for key, value in table.items()}
        state["stopped"] = {int(pid) for pid in section.get("stopped", [])}
        if "epoch" in section:
            state["epoch"] = int(section["epoch"])
    except (TypeError, ValueError) as exc:
        raise JournalCorruptError(f"unusable agent section: {exc!r}") from exc
    if "debt" in state:
        state["debt"] = {sid: owed for sid, owed in state["debt"].items() if owed > 0}
    restore_core(core, payload["core"])
    return state


def schedule_debt(
    core: "AlpsCore",
    debts_us: Mapping[int, int],
    deferred: MutableMapping[int, int],
) -> int:
    """Register downtime consumption for amortized repayment.

    ``debts_us`` maps subject id → CPU (µs) the subject consumed while
    the driver was down (current reading minus the journaled baseline).
    The debt is *not* charged as a lump: an unbounded one-shot charge
    destabilises the postponement optimization — it knocks ``tc`` far
    negative, the resulting burst of cycle completions hands out large
    credits, large allowances open long measurement-blind windows, and
    the next lump is bigger still (a growing oscillation observed under
    chaos testing).  Instead each debt is merged into ``deferred``, to
    be repaid by :func:`repro.alps.step.drain_debt` a share-proportional sliver per
    measured quantum, and the debtor gets ``update = count + 1`` so
    repayment starts on the next quantum.  Returns total µs scheduled.
    """
    total = 0
    for sid, debt_us in debts_us.items():
        st = core.subjects.get(sid)
        if st is None or debt_us <= 0:
            continue
        deferred[sid] = deferred.get(sid, 0) + int(debt_us)
        st.update = core.count + 1
        total += int(debt_us)
    return total


def validate_snapshot(payload: Mapping[str, Any]) -> Mapping[str, Any]:
    """Check a recovered payload's version/shape; raise if unusable."""
    version = payload.get("v")
    if version != SNAPSHOT_VERSION:
        raise JournalCorruptError(
            f"snapshot version {version!r} (expected {SNAPSHOT_VERSION})"
        )
    if "core" not in payload or not isinstance(payload["core"], Mapping):
        raise JournalCorruptError("snapshot has no core section")
    return payload


__all__ = [
    "FileJournal",
    "MAX_DELTA_CHAIN",
    "MemoryJournal",
    "RecoveredJournal",
    "SNAPSHOT_VERSION",
    "WriteFaults",
    "core_snapshot",
    "encode_delta",
    "encode_record",
    "journal_quantum",
    "recover_journal",
    "restore_core",
    "restore_state",
    "schedule_debt",
    "state_snapshot",
    "validate_snapshot",
]
