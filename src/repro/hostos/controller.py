"""A real user-level ALPS controller for Linux.

Drives the same :class:`~repro.alps.algorithm.AlpsCore` as the
simulator, but against live processes: progress comes from
``/proc/<pid>/stat``, eligibility is enacted with SIGSTOP/SIGCONT, and
the quantum timer is an absolute-deadline sleep loop.  It schedules the
simulated agent's :mod:`~repro.alps.subjects` (Section 5 principals),
measures them with the agent's own fold (:mod:`repro.alps.measure`),
and makes every OS call through one host port
(:class:`~repro.hostos.port.ProcfsHost`).
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from repro.alps.algorithm import AlpsCore, QuantumDecisions
from repro.alps.instrumentation import CycleLog
from repro.alps.measure import measure_due
from repro.alps.policy import AlpsPolicy
from repro.alps.subjects import ProcessSubject, Subject
from repro.errors import (
    HostOSError,
    JournalCorruptError,
    NoSuchProcessError,
    SchedulerConfigError,
    TransientReadError,
)
from repro.hostos.port import ProcfsHost
from repro.resilience.journal import (
    journal_quantum,
    restore_state,
    schedule_debt,
    state_snapshot,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer
    from repro.overload.guard import OverloadGuard
    from repro.resilience.journal import FileJournal
    from repro.sharetree.tree import ShareTree


class ProcView:
    """The host's process table as the view :mod:`repro.alps.subjects`
    read membership through, blind to the ``excluded`` pids."""

    __slots__ = ("host", "excluded")

    def __init__(self, host: ProcfsHost, excluded: set[int]) -> None:
        self.host = host
        self.excluded = excluded

    def pid_exists(self, pid: int) -> bool:
        return pid not in self.excluded and self.host.pid_exists(pid)

    def pids_of_uid(self, uid: int) -> list[int]:
        return [p for p in self.host.pids_of_uid(uid) if p not in self.excluded]


def _proc_sids(members: Mapping[int, Subject]) -> dict[int, int]:
    return {
        s.pid: sid for sid, s in members.items() if isinstance(s, ProcessSubject)
    }


@dataclass(slots=True)
class HostAlpsReport:
    """Outcome of a live run."""

    duration_s: float
    cycles: int
    cycle_log: CycleLog
    #: CPU time (µs) each controlled pid consumed during the run.
    consumed_us: dict[int, int]
    #: CPU time (µs) measured against each subject, summed quantum by
    #: quantum: a member that exits or leaves mid-run keeps its share.
    consumed_by_sid: dict[int, int]
    #: The controller's own CPU time (µs) — the overhead numerator.
    controller_cpu_us: int
    #: Overload-guard counters (None when no guard was attached).
    overload_stats: Optional[dict] = None

    def fractions(self) -> dict[int, float]:
        """Fraction of group CPU each pid received."""
        total = sum(self.consumed_us.values())
        if total == 0:
            return {pid: 0.0 for pid in self.consumed_us}
        return {pid: c / total for pid, c in self.consumed_us.items()}

    @property
    def overhead_fraction(self) -> float:
        """Controller CPU / wall time."""
        if self.duration_s <= 0:
            return 0.0
        return self.controller_cpu_us / (self.duration_s * 1_000_000)


class HostAlps:
    """User-level proportional-share scheduler over real processes.

    ``subjects`` are :mod:`~repro.alps.subjects` (a process, a user, a
    pid set), or a ``{pid: share}`` mapping meaning one
    :class:`~repro.alps.subjects.ProcessSubject` per pid, sid == pid.
    Membership is re-enumerated every ``refresh_s`` seconds; it never
    includes the controller or its ancestors, which nothing would resume.
    A pid someone else stopped (``^Z``, a debugger) counts as blocked and
    is neither stopped nor resumed.  Every OS call goes through ``host``
    (default :class:`~repro.hostos.port.ProcfsHost`, the real Linux
    host), where a zombie counts as dead.

    Note: quanta below ~20 ms are dominated by Python/sleep jitter and
    by the tick resolution of /proc CPU accounting; the simulator is
    the instrument for quantitative claims (see package docstring).

    Robustness (docs/fault_model.md): a procfs read that fails while
    the pid exists is retried within ``read_retry_budget``, then skipped
    for the quantum with its baseline kept, as in the simulated agent;
    ``_signal`` discriminates a vanished process (ESRCH — forget it)
    from one we may not signal (EPERM — stop scheduling the pid, it
    cannot be controlled); and exit always runs :meth:`_resume_all`,
    which resumes by *kernel truth* (any single-process member in state
    ``T``), not just the controller's own stop-set, so a crash between
    a SIGSTOP and its bookkeeping cannot wedge a process.
    """

    def __init__(
        self,
        subjects: Union[Mapping[int, int], Sequence[Subject]],
        *,
        quantum_s: float = 0.05,
        optimized: bool = True,
        track_io: bool = True,
        refresh_s: float = 1.0,
        read_retry_budget: int = 2,
        resume_retry_budget: int = 3,
        journal: Optional["FileJournal"] = None,
        observer: Optional["Observer"] = None,
        overload: Optional["OverloadGuard"] = None,
        sharetree: Optional["ShareTree"] = None,
        host: Optional[ProcfsHost] = None,
    ) -> None:
        if isinstance(subjects, Mapping):
            subjects = [
                ProcessSubject(pid, share, pid) for pid, share in subjects.items()
            ]
        members = {subj.sid: subj for subj in subjects}
        if len(members) != len(subjects):
            raise HostOSError("subject ids must be unique")
        if quantum_s <= 0:
            raise HostOSError(f"quantum must be positive, got {quantum_s}")
        if refresh_s <= 0:
            raise HostOSError(f"refresh_s must be positive, got {refresh_s}")
        budgets = {"read": read_retry_budget, "resume": resume_retry_budget}
        for name, budget in budgets.items():
            if budget < 0:
                raise HostOSError(f"{name}_retry_budget must be >= 0, got {budget}")
        self.quantum_us = int(quantum_s * 1_000_000)
        self.track_io = track_io
        self.refresh_s = refresh_s
        self.read_retry_budget = read_retry_budget
        self.resume_retry_budget = resume_retry_budget
        self.journal = journal
        self.observer = observer
        self.host = host if host is not None else ProcfsHost()
        self.core = AlpsCore(
            {sid: subj.share for sid, subj in members.items()},
            self.quantum_us,
            optimized=optimized,
            now_fn=self._now,
        )
        self._last_read: dict[int, int] = {}
        self._stopped: set[int] = set()
        self._initial: dict[int, int] = {}
        #: CPU (µs) measured per subject over the run (the report's
        #: ``consumed_by_sid``).
        self._cumulative: dict[int, int] = {}
        #: pids dropped because the controller may not signal them (EPERM).
        self.uncontrollable: set[int] = set()
        #: pids no subject may hold: the controller and its ancestors,
        #: and the uncontrollable ones.
        self._excluded = set(self.host.ancestors())
        self.view = ProcView(self.host, self._excluded)
        #: pid -> sid of each single-process member (death finds it in O(1)).
        self._proc_sids = _proc_sids(members)
        #: Transient procfs reads that needed a retry (statistics).
        self.read_retries = 0
        #: SIGCONTs retried after a transient EINTR/EAGAIN failure.
        self.resume_retries = 0
        #: pids the controller could not resume within its retry budget.
        self.resume_failures = 0
        #: Whether state was replayed from the journal (crash recovery).
        self.recovered = False
        #: Downtime CPU debt (µs) per subject awaiting amortized repayment.
        self._deferred_debt: dict[int, int] = {}
        #: Journaled state changed outside ``_one_quantum`` since the
        #: last record (a run starting or winding down): the next
        #: record must be a checkpoint, a delta would miss it.
        self._journal_stale = True
        #: pids signalled after the last record was written; the next
        #: delta carries where that left them in the stop-set.
        self._journal_signalled: list[int] = []
        #: Admission, degradation and share-tree policy
        #: (:mod:`repro.alps.policy`); ``members`` is its member map.
        #: The guard's state is volatile by design: after a journaled
        #: restart protection re-engages from fresh slip evidence rather
        #: than replaying the pre-crash ladder position.  Tree leaf sids
        #: are subject sids; a flat-equivalent tree changes nothing.
        self.policy = AlpsPolicy(
            self.core, members, self._admit, self._release, self._now
        )
        self.policy.obs = observer
        self.policy.guard = overload
        self.policy.tree = sharetree
        self.policy.reweigh()

    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> HostAlpsReport:
        """Control the processes for ``duration_s`` seconds.

        All controlled processes are resumed (SIGCONT) on the way out,
        even if the run raises.
        """
        host = self.host
        t_start = host.clock()
        own_cpu_start = host.cpu_time()
        self._journal_stale = True  # baselines below, _resume_all after
        for sid, subj in list(self.policy.members.items()):
            self._cumulative.setdefault(sid, 0)
            for pid in self._pids_of(subj):
                if pid in self._initial and pid in self._last_read:
                    # Journal-restored: the outage debt was already
                    # charged (capped) at restore time, and _initial keeps
                    # lifetime consumption accounting spanning the crash.
                    continue
                if not self._baseline(pid):
                    self._forget_pid(pid)
        self._refresh_principals()
        q = self.quantum_us
        deadline = t_start + int(duration_s * 1_000_000)
        refresh_us = int(self.refresh_s * 1_000_000)
        next_refresh = t_start + refresh_us
        boundary = t_start + q
        guard = self.policy.guard
        try:
            while True:
                now = host.clock()
                if now >= deadline:
                    break
                if boundary > now:
                    host.sleep(boundary - now)
                # Skip past any boundaries we overslept.
                now = host.clock()
                # Cadence slip: wake *dispatch* is usually prompt even
                # under load; starvation shows as the whole loop
                # iteration (reads, signals, the sleep) taking longer
                # than the stride.
                self.policy.wake(now)
                stride = q if guard is None else q * guard.stretch_factor
                boundary += (max(0, (now - boundary) // stride) + 1) * stride
                self.policy.cadence_us = stride
                if now >= next_refresh:
                    self._refresh_principals()
                    next_refresh = now + refresh_us
                self._one_quantum()
        finally:
            self._resume_all()
        t_end = host.clock()
        consumed = {}
        for pid, start in self._initial.items():
            try:
                final = host.stat(pid)[0]  # a zombie's counter is final
            except HostOSError:
                # Reaped mid-run: its last successful reading is the
                # best (and an under-) estimate of what it consumed.
                final = self._last_read.get(pid, start)
            consumed[pid] = final - start
        return HostAlpsReport(
            duration_s=(t_end - t_start) / 1_000_000,
            cycles=self.core.cycles_completed,
            cycle_log=self.core.cycle_log,
            consumed_us=consumed,
            consumed_by_sid=dict(self._cumulative),
            controller_cpu_us=host.cpu_time() - own_cpu_start,
            overload_stats=guard.stats() if guard is not None else None,
        )

    # ------------------------------------------------------------------
    def _one_quantum(self) -> QuantumDecisions:
        """One invocation: measure the due subjects, decide, journal,
        signal.  Returns the core's decisions."""
        members = self.policy.members
        due = [(sid, self._pids_of(members[sid])) for sid in self.core.begin_quantum()]
        shrunk: list[int] = []

        def dead(sid: int, pid: int) -> None:
            self._forget_pid(pid)  # a lone pid takes its subject with it
            shrunk.append(sid)

        measurements, _, _ = measure_due(
            due,
            self.core,
            read=self._read,
            retry=self._retry_read,
            dead=dead,
            last_read=self._last_read,
            cumulative=self._cumulative,
            debt=self._deferred_debt,
            track_io=self.track_io,
        )
        decisions = self.core.complete_quantum(measurements)
        if self.journal is not None:
            # Write-ahead: the record is durable before the signals it
            # encodes are sent.
            journal_quantum(
                self.journal,
                self.snapshot_state,
                self.core,
                self._now(),
                full=decisions.full_sweep or self._journal_stale,
                stopped=self._stopped,
                signalled=self._journal_signalled,
                debt=self._deferred_debt,
                touched={
                    "last_read": (
                        self._last_read, [pid for _, pids in due for pid in pids]
                    ),
                    "cumulative": (self._cumulative, measurements),
                },
            )
            self._journal_stale = False
        signalled: list[int] = []
        for sid in decisions.to_suspend:
            for pid in self._pids_of(members[sid]):
                if self._stop(pid):
                    signalled.append(pid)
        for sid in decisions.to_resume:
            for pid in self._pids_of(members[sid]):
                if pid in self._stopped:  # never one someone else stopped
                    self._signal(pid, signal.SIGCONT)
                    signalled.append(pid)
        self._journal_signalled = signalled
        if shrunk:
            # A member died: take it out of its subject now, so an
            # emptied subject is measured as empty from the next quantum.
            self._refresh_principals(shrunk)
        return decisions

    def _refresh_principals(self, sids: Optional[Sequence[int]] = None) -> None:
        """Apply :meth:`AlpsPolicy.refresh`'s rule to all (or ``sids``)
        subjects; a leaver we stopped is also resumed."""
        for _sid, joined, left, suspended in self.policy.refresh(self.view, sids):
            self._journal_stale = True
            for pid in joined:
                if self._baseline(pid) and suspended:
                    self._stop(pid)
            for pid in left:
                if pid not in self._stopped or self._resume_one(pid):
                    self._forget_pid(pid)

    # ------------------------------------------------------------------
    # Admission and share tree (docs/overload.md, docs/share_tree.md);
    # the policy itself is repro.alps.policy
    # ------------------------------------------------------------------
    def submit_pid(
        self, pid: int, share: int, *, path: Optional[str] = None
    ) -> bool:
        """Offer a new pid to the group through admission control.

        Returns True iff the pid joined the enforced set now; a queued
        arrival joins at a later wake, a dead one never.  With a share
        tree attached, ``path`` places the arrival in the tree behind
        its subtree's own gate — the same policy as the sim agent's
        ``submit_subject(path=...)``
        (:meth:`~repro.alps.policy.AlpsPolicy.submit`).
        """
        if share < 1:
            raise HostOSError(f"share must be >= 1, got {share}")
        try:
            return self.policy.submit(ProcessSubject(pid, share, pid), path)
        except SchedulerConfigError as exc:
            raise HostOSError(str(exc)) from exc

    def set_tree_weight(self, path: str, weight: int) -> None:
        """Reweight a tree node; every descendant leaf follows."""
        try:
            self.policy.set_tree_weight(path, weight)
        except SchedulerConfigError as exc:
            raise HostOSError(str(exc)) from exc

    # -- the policy's port (repro.alps.policy) ----------------------------
    def _admit(self, subj: Subject) -> int:
        """Enumerate and baseline a joining subject's pids; 0 if none is left."""
        subj.refresh(self.view)
        self._proc_sids.update(_proc_sids({subj.sid: subj}))
        return sum(self._baseline(pid) for pid in self._pids_of(subj))

    def _release(self, sid: int) -> int:
        """Hand a departing subject back to the kernel: resume its stopped pids."""
        stopped = self._stopped.intersection(self.policy.members[sid].pids(self.view))
        for pid in stopped:
            if self._resume_one(pid):
                self._stopped.discard(pid)
        return len(stopped)

    def _now(self) -> int:
        return self.host.clock()

    def _pids_of(self, subj: Subject) -> list[int]:
        """A subject's pids, less any excluded since its last refresh."""
        return [p for p in subj.pids(self.view) if p not in self._excluded]

    def _baseline(self, pid: int) -> bool:
        """Start measuring ``pid`` from its current reading; False if gone."""
        try:
            usage = self.host.read(pid)[0]
        except HostOSError:
            return False
        self._last_read[pid] = usage
        self._initial.setdefault(pid, usage)
        self._journal_stale = True
        return True

    def _read(self, pid: int) -> tuple[int, bool, bool]:
        """The fold's reader: ``(cpu_us, blocked, stopped)`` of ``pid``
        from its one stat read.  It votes blocked when asleep, or
        stopped by someone else (one we stopped would run once
        resumed)."""
        try:
            usage, state = self.host.read(pid)
        except HostOSError:
            if self.host.pid_exists(pid):
                raise TransientReadError(pid) from None
            raise NoSuchProcessError(pid) from None
        if state == "T":
            return usage, pid not in self._stopped, True
        return usage, state in ("S", "D"), False

    def _retry_read(self, pid: int) -> Optional[tuple[int, bool, bool]]:
        """Retry a read that failed while its pid existed, up to
        ``read_retry_budget`` times; None once the budget is spent."""
        for _ in range(self.read_retry_budget):
            self.read_retries += 1
            try:
                return self._read(pid)
            except TransientReadError:
                continue
        return None

    def _stop(self, pid: int) -> bool:
        """SIGSTOP ``pid`` unless it is gone or someone else stopped it
        (then resuming it is not ours to do either)."""
        try:
            if self.host.read(pid)[1] == "T" and pid not in self._stopped:
                return False
        except HostOSError:
            return False
        self._signal(pid, signal.SIGSTOP)
        return True

    def _forget_pid(self, pid: int) -> None:
        """Stop tracking a dead, departed or unsignallable pid; a
        single-process subject leaves with it."""
        self._journal_stale |= pid in self._stopped or pid in self._proc_sids
        self._stopped.discard(pid)
        sid = self._proc_sids.pop(pid, None)
        if sid is not None:
            self.policy.depart([sid])

    def _signal(self, pid: int, signo: int) -> None:
        try:
            self.host.kill(pid, signo)
        except ProcessLookupError:  # ESRCH: gone — forget it
            self._stopped.discard(pid)
            return
        except PermissionError:  # EPERM: alive but not ours to control
            self.uncontrollable.add(pid)
            self._excluded.add(pid)
            self._forget_pid(pid)
            return
        if signo == signal.SIGSTOP:
            self._stopped.add(pid)
        else:
            self._stopped.discard(pid)

    def _resume_all(self) -> None:
        """Resume every process this controller may have stopped.

        Consults kernel truth in addition to the stop-set: a
        single-process member in procfs state ``T`` gets a SIGCONT,
        covering pids stopped right before an exception (or under
        bookkeeping lost to a crash).  A multi-process subject's own
        ``^Z``'d jobs are not ours: its members rely on the stop-set.

        A transient ``kill(2)`` failure (EINTR, EAGAIN) is retried with
        bounded backoff, not swallowed: a SIGCONT lost on the way out
        wedges the process forever.  A pid still unresumed after the
        budget is counted in :attr:`resume_failures`, reported as a
        ``hostalps.resume_failed`` event, and stays in the stop-set so a
        later pass (or journaled restart) tries again.
        """
        candidates = self._stopped.union(self._proc_sids)
        for pid in candidates:
            if pid not in self._stopped:
                try:
                    if self.host.read(pid)[1] != "T":
                        continue
                except HostOSError:
                    continue
            if self._resume_one(pid):
                self._stopped.discard(pid)

    def _resume_one(self, pid: int) -> bool:
        """SIGCONT one pid, retrying transient EINTR/EAGAIN failures.

        Returns True when the pid no longer needs resuming (delivered,
        gone, or not ours to signal); False when the retry budget ran
        out with the failure still transient.
        """
        delay_us = 1_000
        for attempt in range(self.resume_retry_budget + 1):
            try:
                self.host.kill(pid, signal.SIGCONT)
                return True
            except (ProcessLookupError, PermissionError):
                return True  # gone, or not ours: nothing left to recover
            except (InterruptedError, BlockingIOError):
                if attempt < self.resume_retry_budget:
                    self.resume_retries += 1
                    self.host.sleep(delay_us)
                    delay_us = min(delay_us * 2, 50_000)
        self.resume_failures += 1
        obs = self.observer
        if obs is not None and obs.enabled:
            obs.events.emit(
                self._now(),
                "hostalps.resume_failed",
                pid=pid,
                attempts=self.resume_retry_budget + 1,
            )
        return False

    # ------------------------------------------------------------------
    # Crash safety (docs/resilience.md)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-safe snapshot of everything a restarted controller needs."""
        return state_snapshot(
            self.core,
            self._now(),
            self._stopped,
            {
                "last_read": self._last_read,
                "initial": self._initial,
                "cumulative": self._cumulative,
                "debt": self._deferred_debt,
            },
        )

    def restore_from_journal(self) -> bool:
        """Replay the attached journal's latest snapshot, if usable.

        Returns True when state was restored: the algorithm core resumes
        the same cycle, and CPU consumed during the outage (current
        procfs reading minus the journaled baseline) is scheduled for
        amortized repayment
        (:func:`~repro.resilience.journal.schedule_debt`) — a
        share-proportional sliver per subsequent quantum, so the
        fairness debt survives the crash without destabilising the
        postponement optimization.  Dead pids are pruned against procfs,
        and restored-stopped pids are resumed only by the algorithm's
        own next decisions.  Returns False (leaving the fresh-start
        state untouched) for a missing, empty, or corrupt-beyond-use
        journal.
        """
        if self.journal is None:
            return False
        rec = self.journal.recover()
        if rec.snapshot is None:
            return False
        try:
            state = restore_state(
                self.core,
                rec.snapshot,
                ("last_read", "initial", "cumulative", "debt"),
            )
        except JournalCorruptError:
            return False
        last_read = state["last_read"]
        deferred = state["debt"]
        self._last_read = {}
        self._initial = state["initial"]
        self._cumulative = state["cumulative"]
        self._stopped = state["stopped"]
        # The journaled core is the membership: a sid it lacks departed,
        # and one the constructor lacks joined through submit_pid.
        members = self.policy.members
        for sid in [sid for sid in members if sid not in self.core.subjects]:
            del members[sid]
        for sid, st in self.core.subjects.items():
            members.setdefault(sid, ProcessSubject(sid, st.share, sid))
        self._proc_sids = _proc_sids(members)
        self._refresh_principals()
        debts: dict[int, int] = {}
        for sid, subj in list(members.items()):
            debt = 0
            for pid in self._pids_of(subj):
                try:
                    usage = self.host.read(pid)[0]
                except HostOSError:
                    self._initial.pop(pid, None)
                    self._forget_pid(pid)
                    continue
                base = last_read.get(pid)
                if base is not None and usage > base:
                    debt += usage - base
                self._last_read[pid] = usage
            debts[sid] = debt
        debt_us = schedule_debt(self.core, debts, deferred)
        self._deferred_debt = deferred
        self._stopped = {pid for pid in self._stopped if self.host.pid_exists(pid)}
        self.recovered = True
        obs = self.observer
        if obs is not None and obs.enabled:
            obs.events.emit(
                self._now(),
                "hostalps.recovered",
                subjects=len(self.core.subjects),
                records=rec.records,
                debt_us=debt_us,
            )
        return True
