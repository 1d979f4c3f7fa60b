"""One ALPS quantum, written once for both drivers.

The paper's ALPS is one loop: each quantum it reads the due processes'
progress, runs Figure 3, and sends SIGSTOP/SIGCONT.  :class:`QuantumStep`
is that loop's body for the simulated
:class:`~repro.alps.agent.AlpsAgent` and the real-Linux
:class:`~repro.hostos.controller.HostAlps` alike: measure (the fold of
:func:`measure_due`, READ-PROGRESS) → decide
(:class:`~repro.alps.algorithm.AlpsCore`) → plan the signals → write
the journal record → and, after a crash, journaled recovery.  It owns
the per-pid driver state: read baselines, cumulative CPU, the stop-set,
outage debt, and the journal's stale flag and signalled list.

It makes no OS call of its own and charges nothing.  Every read goes
through ``view``, a kapi-shaped process view the driver hands it
(``read_progress``, ``is_stopped``, ``pid_exists``); every signal comes
back as an intent ``(pid, stop)`` for the driver to send; per-pid
cleanup is the driver's ``forget(pid)``.  The agent turns intents and
counts into kapi calls and Table 1 charges, the host into
:class:`~repro.hostos.port.ProcfsHost` calls.

What the two drivers mean differently is four named constructor
arguments (docs/algorithm.md, "Two drivers, one step"):

* ``heal_wedges`` — a measured, eligible pid the fold read stopped (or
  could not read) and ``is_stopped`` confirms is resumed: only a lost
  SIGCONT or a delayed SIGSTOP can have stopped it.
* ``foreign_stops`` — a pid someone else stopped is left alone: never
  stopped, never resumed, and after a restore the journaled stop-set is
  trusted (kernel state cannot tell whose stop a ``T`` is), with no
  fix-up signals.
* ``dead_leaves_now`` — a pid found dead has its subject re-enumerated
  in the same quantum (:attr:`shrunk`); otherwise the driver's next
  liveness sweep takes it out of the core.
* ``journal_pending`` — a delta's stop-set rows also carry the pids
  this quantum is about to signal (wedge heals move the stop-set
  before the record).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Callable, Collection, Mapping, MutableMapping, Optional,
    Sequence,
)

from repro.alps.state import Eligibility
from repro.errors import NoSuchProcessError, TransientReadError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alps.algorithm import AlpsCore, QuantumDecisions

#: A signal to send: ``(pid, stop)`` — SIGSTOP when ``stop``, else SIGCONT.
Signal = tuple[int, bool]

_ELIGIBLE = Eligibility.ELIGIBLE

#: :mod:`repro.resilience.journal`, imported by the first journaled
#: step that needs it (a bare run never loads it) and bound here once.
_journal: Any = None


def _journal_module() -> Any:
    global _journal
    if _journal is None:
        import repro.resilience.journal

        _journal = repro.resilience.journal
    return _journal


def drain_debt(
    deferred: MutableMapping[int, int],
    sid: int,
    share: int,
    quantum_us: int,
    total_shares: int,
) -> int:
    """One measurement's repayment of ``sid``'s deferred downtime debt.

    Removes and returns at most the subject's fair-share rate — one
    share-proportional quantum slice, ``share · Q / S`` µs — so the
    extra charge per quantum never exceeds what a cycle already credits
    back, keeping allowances (and the postponement feedback loop)
    damped while the debt is repaid in full.  Returns 0 when ``sid``
    owes nothing; callers add the result to the quantum's measured
    consumption.
    """
    owed = deferred.get(sid)
    if not owed:
        return 0
    rate = max(1, (share * quantum_us) // max(1, total_shares))
    if owed <= rate:
        del deferred[sid]
        return owed
    deferred[sid] = owed - rate
    return rate


def measure_due(
    due: Sequence[tuple[int, Sequence[int]]],
    core: "AlpsCore",
    *,
    read: Callable[[int], tuple[int, bool, bool]],
    retry: Callable[[int], Optional[tuple[int, bool, bool]]],
    dead: Callable[[int, int], None],
    last_read: dict[int, int],
    cumulative: dict[int, int],
    debt: dict[int, int],
    track_io: bool,
) -> tuple[dict[int, tuple[int, bool]], int, list[tuple[int, int]]]:
    """Measure the due ``(sid, pids)``; returns the measurements, how
    many CPU counters ran backwards (each charged 0, never negative),
    and the ``(sid, pid)`` pairs, in walk order, whose stop state the
    driver cannot take as running: the pids read stopped, and those
    left unread.

    ``read(pid)`` is one read of ``(cpu_us, blocked, stopped)``, or
    raises :class:`NoSuchProcessError` (dead, reported to
    ``dead(sid, pid)`` in walk order) or :class:`TransientReadError`,
    after which ``retry(pid)`` reads again, raises, or returns None: no
    reading this quantum, the baseline kept so the next read charges
    the whole interval.

    A subject the core no longer holds is skipped unread, and one a
    ``dead`` report took out of the core is not measured.  A subject is
    blocked iff every live pid is, never with ``track_io`` off — except
    that a subject with no pid when its measurement starts is charged
    as blocked (Figure 3: allowance -= 1, tc -= Q) whatever
    ``track_io`` says, or it stays eligible with a positive allowance
    and tc never reaches 0, holding the cycle open for everyone.
    ``cumulative`` gains the measured CPU; a share-proportional sliver
    of post-crash ``debt`` rides on the charge
    (:func:`drain_debt`).
    """
    measurements: dict[int, tuple[int, bool]] = {}
    anomalies = 0
    suspects: list[tuple[int, int]] = []
    core_subjects = core.subjects
    for sid, pids in due:
        st = core_subjects.get(sid)
        if st is None:
            continue
        consumed = 0
        live = 0
        died = False
        blocked = track_io or not pids
        for pid in pids:
            try:
                try:
                    usage, pid_blocked, stopped = read(pid)
                except TransientReadError:
                    progress = retry(pid)
                    if progress is None:
                        suspects.append((sid, pid))
                        continue
                    usage, pid_blocked, stopped = progress
            except NoSuchProcessError:
                dead(sid, pid)
                died = True
                continue
            live += 1
            last = last_read.get(pid)
            if last != usage:  # no baseline yet, or progress to charge
                if last is not None:
                    if usage < last:
                        anomalies += 1
                    else:
                        consumed += usage - last
                last_read[pid] = usage
            if not pid_blocked:
                blocked = False
            if stopped:
                suspects.append((sid, pid))
        if died and sid not in core_subjects:
            continue
        if blocked and not live and pids:
            blocked = False  # every pid died or went unread: no vote
        if consumed or sid not in cumulative:
            cumulative[sid] = cumulative.get(sid, 0) + consumed
        if debt:
            consumed += drain_debt(
                debt, sid, st.share, core.quantum_us, core.total_shares
            )
        # A bare tuple: complete_quantum unpacks positionally, and the
        # Measurement constructor costs several times a tuple display.
        measurements[sid] = (consumed, blocked)
    return measurements, anomalies, suspects


class QuantumStep:
    """Per-pid driver state and the one quantum body both drivers run."""

    def __init__(
        self,
        core: "AlpsCore",
        members: dict[int, Any],
        *,
        forget: Callable[[int], None],
        track_io: bool,
        read_retry_budget: int,
        heal_wedges: bool,
        foreign_stops: bool,
        dead_leaves_now: bool,
        journal_pending: bool,
        excluded: Collection[int] = frozenset(),
        view: Any = None,
    ) -> None:
        self.core = core
        #: sid -> subject of every enforced member (the policy's map).
        self.members = members
        #: The kapi-shaped process view reads and subjects go through.
        self.view = view
        #: The driver's per-pid cleanup for a dead or departed pid.
        self.forget = forget
        #: pids no subject may hold, filtered out of every pid list (the
        #: host's: itself, its ancestors, the ones it may not signal).
        self.excluded = excluded
        self.track_io = track_io
        self.read_retry_budget = read_retry_budget
        self.heal_wedges = heal_wedges
        self.foreign_stops = foreign_stops
        self.dead_leaves_now = dead_leaves_now
        self.journal_pending = journal_pending
        #: Write-ahead journal (:mod:`repro.resilience.journal`) or None.
        self.journal: Any = None
        self.last_read: dict[int, int] = {}
        #: CPU (µs) measured per subject since control began.
        self.cumulative: dict[int, int] = {}
        #: pids this driver stopped (and has not resumed).
        self.stopped: set[int] = set()
        #: Downtime CPU debt (µs) per subject awaiting amortized repayment.
        self.debt: dict[int, int] = {}
        #: Checkpoint extras: the agent's quantum-grid origin, the host's
        #: first reading per pid (for its run report); None = not kept.
        self.epoch: Optional[int] = None
        self.initial: Optional[dict[int, int]] = None
        #: Journaled state changed outside a measurement since the last
        #: record: the next record must be a checkpoint.
        self.journal_stale = True
        #: pids signalled after the last record; the next delta carries
        #: where that left them in the stop-set.
        self.journal_signalled: list[int] = []
        #: Subjects a dead pid shrank this quantum (``dead_leaves_now``).
        self.shrunk: list[int] = []
        self.read_retries = 0
        self.read_failures = 0
        self.heals = 0
        self.anomalies = 0

    # ------------------------------------------------------------------
    # One quantum
    # ------------------------------------------------------------------
    def due(self) -> tuple[list[tuple[int, list[int]]], int]:
        """Begin a quantum: the due ``(sid, pids)`` and their pid count."""
        due = []
        npids = 0
        members_get = self.members.get
        view = self.view
        excluded = self.excluded
        for sid in self.core.begin_quantum():
            subj = members_get(sid)
            if subj is None:
                continue  # died after the core selected it
            pids = subj.pids(view)
            if excluded:
                pids = [p for p in pids if p not in excluded]
            due.append((sid, pids))
            npids += len(pids)
        return due, npids

    def quantum(
        self, due: list[tuple[int, list[int]]], now: int
    ) -> tuple["QuantumDecisions", list[Signal]]:
        """Measure ``due``, decide, plan the signals and journal them
        (write-ahead: the record is appended before the driver sends
        them).  Returns the core's decisions and the signals."""
        measurements, anomalies, suspects = measure_due(
            due,
            self.core,
            read=self.view.read_progress,
            retry=self.retry,
            dead=self._dead,
            last_read=self.last_read,
            cumulative=self.cumulative,
            debt=self.debt,
            track_io=self.track_io,
        )
        self.anomalies += anomalies
        decisions = self.core.complete_quantum(measurements)
        signals = self.plan(decisions, suspects)
        if self.journal is not None:
            self.record(now, due, measurements, decisions, signals)
        return decisions, signals

    def _dead(self, sid: int, pid: int) -> None:
        self.forget(pid)
        if self.dead_leaves_now:
            self.shrunk.append(sid)

    def retry(self, pid: int) -> Optional[tuple[int, bool, bool]]:
        """Continue a read whose first attempt failed transiently: up
        to ``read_retry_budget`` more, then None (the baseline kept, so
        the next successful read charges the whole interval).  Raises
        :class:`NoSuchProcessError` when the pid turns out gone."""
        read = self.view.read_progress
        for _ in range(self.read_retry_budget):
            self.read_retries += 1
            try:
                return read(pid)
            except TransientReadError:
                continue
        self.read_failures += 1
        return None

    def plan(
        self, decisions: "QuantumDecisions", suspects: list[tuple[int, int]]
    ) -> list[Signal]:
        """A SIGSTOP per pid of each suspended subject and a SIGCONT per
        stopped pid of each resumed one, then wedge heals over the
        measurement's ``suspects``."""
        signals: list[Signal] = []
        stopped = self.stopped
        members_get = self.members.get
        for sid in decisions.to_suspend:
            subj = members_get(sid)
            if subj is None:
                continue
            for pid in self.pids_of(subj):
                if self.foreign_stops:
                    if not self._ours_to_stop(pid):
                        continue
                elif pid in stopped:
                    continue
                signals.append((pid, True))
        for sid in decisions.to_resume:
            subj = members_get(sid)
            if subj is None:
                continue
            for pid in self.pids_of(subj):
                if pid in stopped:
                    signals.append((pid, False))
        if suspects and self.heal_wedges:
            # A subject measured this quantum that is (and stays)
            # eligible must not have stopped processes.  Every other due
            # pid was read running (or dead) this very activation, so
            # only the suspects need a look.
            to_suspend = decisions.to_suspend
            suspend = set(to_suspend) if to_suspend else ()
            core_get = self.core.subjects.get
            is_stopped = self.view.is_stopped
            for sid, pid in suspects:
                st = core_get(sid)
                if st is None or st.state is not _ELIGIBLE or sid in suspend:
                    continue
                try:
                    if is_stopped(pid):
                        signals.append((pid, False))
                        stopped.add(pid)  # make delivery resume it
                        self.heals += 1
                except NoSuchProcessError:
                    self.forget(pid)
        return signals

    def _ours_to_stop(self, pid: int) -> bool:
        """Whether a SIGSTOP to ``pid`` is ours to send: not when it is
        gone or unreadable, nor when someone else stopped it (then
        resuming it is not ours to do either)."""
        try:
            stopped = self.view.read_progress(pid)[2]
        except (NoSuchProcessError, TransientReadError):
            return False
        return not stopped or pid in self.stopped

    def record(
        self,
        now: int,
        due: list[tuple[int, list[int]]],
        measurements: Mapping[int, tuple[int, bool]],
        decisions: "QuantumDecisions",
        signals: list[Signal],
    ) -> None:
        """Append this quantum's record (see
        :func:`~repro.resilience.journal.journal_quantum`)."""
        pending = [pid for pid, _ in signals] if signals else []
        signalled = self.journal_signalled
        if self.journal_pending:
            signalled = signalled + pending
        _journal_module().journal_quantum(
            self, now, due, measurements,
            decisions.full_sweep or self.journal_stale, signalled,
        )
        self.journal_stale = False
        self.journal_signalled = pending

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def pids_of(self, subj: Any) -> list[int]:
        """A subject's pids, less any excluded since its last refresh."""
        pids = subj.pids(self.view)
        excluded = self.excluded
        return [p for p in pids if p not in excluded] if excluded else pids

    def baseline(self, pid: int) -> bool:
        """(Re)start measuring ``pid`` from its current reading; False
        iff it is gone.  A transient failure drops the stale baseline
        instead: the next successful read starts a fresh interval,
        which can only under-charge."""
        self.journal_stale = True
        try:
            usage = self.view.read_progress(pid)[0]
        except NoSuchProcessError:
            self.forget(pid)
            return False
        except TransientReadError:
            self.last_read.pop(pid, None)
            return True
        self.last_read[pid] = usage
        if self.initial is not None:
            self.initial.setdefault(pid, usage)
        return True

    def rebaseline(self) -> int:
        """Baseline every member's pids afresh; returns how many."""
        npids = 0
        for subj in list(self.members.values()):  # forget may drop one
            for pid in self.pids_of(subj):
                npids += 1
                self.baseline(pid)
        return npids

    def refresh(
        self, changes: list[tuple[int, set[int], set[int], bool]]
    ) -> tuple[list[int], list[int]]:
        """Apply :meth:`~repro.alps.policy.AlpsPolicy.refresh`'s
        ``changes``: baseline each joiner.  Returns the joiners to stop
        (their subject is suspended) and the leavers, for the driver to
        resume if it stopped them and forget."""
        stops: list[int] = []
        leavers: list[int] = []
        for _sid, joined, left, suspended in changes:
            self.journal_stale = True
            for pid in joined:
                if (
                    self.baseline(pid)
                    and suspended
                    and (not self.foreign_stops or self._ours_to_stop(pid))
                ):
                    stops.append(pid)
            leavers.extend(left)
        return stops, leavers

    # ------------------------------------------------------------------
    # Crash safety (docs/resilience.md)
    # ------------------------------------------------------------------
    def snapshot(self, now: int) -> dict:
        """JSON-safe checkpoint of all state a restart must not lose."""
        state_snapshot = _journal_module().state_snapshot
        maps = {
            "last_read": self.last_read,
            "cumulative": self.cumulative,
            "debt": self.debt,
        }
        if self.initial is not None:
            maps["initial"] = self.initial
        if self.epoch is None:
            return state_snapshot(self.core, now, self.stopped, maps)
        return state_snapshot(self.core, now, self.stopped, maps, epoch=self.epoch)

    def restore(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Restore the core and the per-subject tables from a recovered
        checkpoint; returns its decoded section for :meth:`rejoin`.

        Raises :class:`~repro.errors.JournalCorruptError`, touching
        nothing, on an unusable payload.  The stop-set restarts empty —
        or, under ``foreign_stops``, as journaled — and the baselines
        restart empty until :meth:`rejoin` reads them.
        """
        restore_state = _journal_module().restore_state
        maps = ("last_read", "cumulative", "debt")
        if self.initial is not None:
            maps += ("initial",)
        state = restore_state(self.core, payload, maps)
        self.last_read = {}
        self.cumulative = state["cumulative"]
        self.debt = state["debt"]
        if self.initial is not None:
            self.initial = state["initial"]
        self.stopped.clear()
        if self.foreign_stops:
            self.stopped.update(state["stopped"])
        return state

    def rejoin(self, state: Mapping[str, Any]) -> tuple[list[Signal], int, int]:
        """Re-read every member's pids after :meth:`restore`.

        Each pid is checked with ``pid_exists`` (free) and read once
        with ``read_progress``; ``is_stopped`` is asked only when the
        read and its retries fail.  The CPU a subject consumed while the
        driver was down (reading minus journaled baseline) is scheduled
        for amortized repayment
        (:func:`~repro.resilience.journal.schedule_debt`), not forgiven.
        Without ``foreign_stops`` the stop-set becomes the pids read
        stopped, and each pid whose stopped-ness contradicts its
        subject's restored eligibility gets a fix-up signal.  Returns
        the fix-ups, the debt scheduled (µs) and the pids walked.
        """
        schedule_debt = _journal_module().schedule_debt
        base = state["last_read"]
        view = self.view
        read = view.read_progress
        last_read = self.last_read
        stopped = self.stopped
        trust_kernel = not self.foreign_stops
        npids = 0
        debts: dict[int, int] = {}
        rows: list[tuple[int, int, bool]] = []
        for sid, subj in list(self.members.items()):
            debt = 0
            for pid in self.pids_of(subj):
                npids += 1
                try:
                    if not view.pid_exists(pid):
                        raise NoSuchProcessError(pid)
                    try:
                        usage, _, is_stopped = read(pid)
                    except TransientReadError:
                        progress = self.retry(pid)
                        if progress is None:
                            usage = None
                            is_stopped = trust_kernel and view.is_stopped(pid)
                        else:
                            usage, _, is_stopped = progress
                except NoSuchProcessError:
                    if self.initial is not None:
                        self.initial.pop(pid, None)
                    self.forget(pid)
                    continue
                if usage is not None:
                    last = base.get(pid)
                    if last is not None and usage > last:
                        debt += usage - last
                    last_read[pid] = usage
                if trust_kernel:
                    if is_stopped:
                        stopped.add(pid)
                    rows.append((sid, pid, is_stopped))
            if debt:
                debts[sid] = debt
        # Repaid gradually, not as a lump; the restored partition stands.
        scheduled_us = schedule_debt(self.core, debts, self.debt)
        fixups: list[Signal] = []
        core_subjects = self.core.subjects
        for sid, pid, is_stopped in rows:
            st = core_subjects.get(sid)
            want_stopped = st is not None and not st.eligible
            if is_stopped != want_stopped:
                fixups.append((pid, want_stopped))
        for pid in [p for p in stopped if not view.pid_exists(p)]:
            stopped.discard(pid)
        return fixups, scheduled_us, npids
