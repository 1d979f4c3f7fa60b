"""A real user-level ALPS controller for Linux.

The simulated agent's quantum body (:mod:`repro.alps.step`) and
subjects (Section 5 principals) against live processes: progress from
``/proc/<pid>/stat``, eligibility by SIGSTOP/SIGCONT, an
absolute-deadline sleep loop for the timer, and every OS call through
one host port (:class:`~repro.hostos.port.ProcfsHost`).
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from repro.alps.algorithm import AlpsCore, QuantumDecisions
from repro.alps.instrumentation import CycleLog
from repro.alps.policy import AlpsPolicy
from repro.alps.step import QuantumStep
from repro.alps.subjects import ProcessSubject, Subject
from repro.errors import (
    HostOSError,
    JournalCorruptError,
    NoSuchProcessError,
    SchedulerConfigError,
    TransientReadError,
)
from repro.hostos.port import ProcfsHost

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer
    from repro.overload.guard import OverloadGuard
    from repro.resilience.journal import FileJournal
    from repro.sharetree.tree import ShareTree


class ProcView:
    """The host's process table as the kapi-shaped view the quantum step
    and :mod:`repro.alps.subjects` read through, blind to the
    ``excluded`` pids.  ``ours`` is the controller's stop-set."""

    __slots__ = ("host", "excluded", "ours")

    def __init__(self, host: ProcfsHost, excluded: set[int], ours: set[int]) -> None:
        self.host = host
        self.excluded = excluded
        self.ours = ours

    def pid_exists(self, pid: int) -> bool:
        return pid not in self.excluded and self.host.pid_exists(pid)

    def pids_of_uid(self, uid: int) -> list[int]:
        return [p for p in self.host.pids_of_uid(uid) if p not in self.excluded]

    def read_progress(self, pid: int) -> tuple[int, bool, bool]:
        """``(cpu_us, blocked, stopped)`` of ``pid`` from its one stat
        read.  It votes blocked when asleep, or stopped by someone else
        (one we stopped would run once resumed)."""
        try:
            usage, state = self.host.read(pid)
        except HostOSError:
            if self.host.pid_exists(pid):
                raise TransientReadError(pid) from None
            raise NoSuchProcessError(pid) from None
        if state == "T":
            return usage, pid not in self.ours, True
        return usage, state in ("S", "D"), False


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

    Quanta below ~20 ms are dominated by Python/sleep jitter and by
    the tick resolution of /proc CPU accounting; the simulator is the
    instrument for quantitative claims.

    Robustness (docs/fault_model.md): reads retry as in the simulated
    agent (one :class:`~repro.alps.step.QuantumStep`); ``_signal``
    forgets a vanished pid (ESRCH) and stops scheduling one it may not
    signal (EPERM); and exit always runs :meth:`_resume_all`, which
    resumes by kernel truth, so a crash between a SIGSTOP and its
    bookkeeping cannot wedge a process.
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
        self.refresh_s = refresh_s
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
        #: pids dropped because the controller may not signal them (EPERM).
        self.uncontrollable: set[int] = set()
        #: pids no subject may hold: the controller and its ancestors,
        #: and the uncontrollable ones.
        self._excluded = set(self.host.ancestors())
        #: The quantum body and per-pid state (:mod:`repro.alps.step`);
        #: its ``initial`` is each pid's first reading, for the report.
        self.step = QuantumStep(
            self.core,
            members,
            forget=self._forget_pid,
            track_io=track_io,
            read_retry_budget=read_retry_budget,
            heal_wedges=False,
            foreign_stops=True,
            dead_leaves_now=True,
            journal_pending=False,
            excluded=self._excluded,
        )
        self.view = self.step.view = ProcView(
            self.host, self._excluded, self.step.stopped
        )
        self.step.initial = {}
        self.step.journal = journal
        #: pid -> sid of each single-process member (death finds it in O(1)).
        self._proc_sids = _proc_sids(members)
        #: SIGCONTs retried after a transient EINTR/EAGAIN failure.
        self.resume_retries = 0
        #: pids the controller could not resume within its retry budget.
        self.resume_failures = 0
        #: Whether state was replayed from the journal (crash recovery).
        self.recovered = False
        #: Admission, degradation and share-tree policy
        #: (:mod:`repro.alps.policy`) over the member map.  The guard's
        #: state is volatile: after a journaled restart protection
        #: re-engages from fresh slip evidence.
        self.policy = AlpsPolicy(
            self.core, members, self._admit, self._release, self._now
        )
        self.policy.obs = observer
        self.policy.guard = overload
        self.policy.tree = sharetree
        self.policy.reweigh()

    #: Transient procfs reads that needed a retry (statistics).
    read_retries = property(lambda self: self.step.read_retries)

    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> HostAlpsReport:
        """Control the processes for ``duration_s`` seconds; all of them
        are resumed (SIGCONT) on the way out, even if the run raises."""
        host = self.host
        step = self.step
        t_start = host.clock()
        own_cpu_start = host.cpu_time()
        step.journal_stale = True  # baselines below, _resume_all after
        for sid, subj in list(self.policy.members.items()):
            step.cumulative.setdefault(sid, 0)
            for pid in step.pids_of(subj):
                if pid in step.initial and pid in step.last_read:
                    # Journal-restored: the outage debt was already
                    # charged (capped) at restore time, and initial keeps
                    # lifetime consumption accounting spanning the crash.
                    continue
                step.baseline(pid)
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
        for pid, start in step.initial.items():
            try:
                final = host.stat(pid)[0]  # a zombie's counter is final
            except HostOSError:
                # Reaped mid-run: its last successful reading is the
                # best (and an under-) estimate of what it consumed.
                final = step.last_read.get(pid, start)
            consumed[pid] = final - start
        return HostAlpsReport(
            duration_s=(t_end - t_start) / 1_000_000,
            cycles=self.core.cycles_completed,
            cycle_log=self.core.cycle_log,
            consumed_us=consumed,
            consumed_by_sid=dict(step.cumulative),
            controller_cpu_us=host.cpu_time() - own_cpu_start,
            overload_stats=guard.stats() if guard is not None else None,
        )

    # ------------------------------------------------------------------
    def _one_quantum(self) -> QuantumDecisions:
        """One quantum step, its signals sent and the subjects a dead pid
        shrank re-enumerated at once; returns the core's decisions."""
        step = self.step
        decisions, signals = step.quantum(step.due()[0], self._now())
        for pid, stop in signals:
            self._signal(pid, signal.SIGSTOP if stop else signal.SIGCONT)
        if step.shrunk:
            shrunk, step.shrunk = step.shrunk, []
            self._refresh_principals(shrunk)
        return decisions

    def _refresh_principals(self, sids: Optional[Sequence[int]] = None) -> None:
        """Apply :meth:`AlpsPolicy.refresh`'s rule to all (or ``sids``)
        subjects; a leaver we stopped is also resumed."""
        stops, leavers = self.step.refresh(self.policy.refresh(self.view, sids))
        for pid in stops:
            self._signal(pid, signal.SIGSTOP)
        for pid in leavers:
            if pid not in self.step.stopped or self._resume_one(pid):
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
        step = self.step
        return sum(step.baseline(pid) for pid in step.pids_of(subj))

    def _release(self, sid: int) -> int:
        """Hand a departing subject back to the kernel: resume its stopped pids."""
        ours = self.step.stopped
        stopped = ours.intersection(self.policy.members[sid].pids(self.view))
        for pid in stopped:
            if self._resume_one(pid):
                ours.discard(pid)
        return len(stopped)

    def _now(self) -> int:
        return self.host.clock()

    def _forget_pid(self, pid: int) -> None:
        """Stop tracking a dead, departed or unsignallable pid; a
        single-process subject leaves with it.  Its last reading stays,
        for the run report."""
        step = self.step
        step.journal_stale |= pid in step.stopped or pid in self._proc_sids
        step.stopped.discard(pid)
        sid = self._proc_sids.pop(pid, None)
        if sid is not None:
            self.policy.depart([sid])

    def _signal(self, pid: int, signo: int) -> None:
        ours = self.step.stopped
        try:
            self.host.kill(pid, signo)
        except ProcessLookupError:  # ESRCH: gone — forget it
            ours.discard(pid)
            return
        except PermissionError:  # EPERM: alive but not ours to control
            self.uncontrollable.add(pid)
            self._excluded.add(pid)
            self._forget_pid(pid)
            return
        if signo == signal.SIGSTOP:
            ours.add(pid)
        else:
            ours.discard(pid)

    def _resume_all(self) -> None:
        """Resume every process this controller may have stopped: the
        stop-set, and by kernel truth any single-process member in state
        ``T`` (a multi-process subject's ``^Z``'d jobs are not ours).  A
        transient ``kill(2)`` failure is retried (:meth:`_resume_one`);
        a pid still unresumed stays in the stop-set for a later pass."""
        ours = self.step.stopped
        for pid in ours.union(self._proc_sids):
            if pid not in ours:
                try:
                    if self.host.read(pid)[1] != "T":
                        continue
                except HostOSError:
                    continue
            if self._resume_one(pid):
                ours.discard(pid)

    def _resume_one(self, pid: int) -> bool:
        """SIGCONT one pid, retrying EINTR/EAGAIN with bounded backoff:
        a SIGCONT lost on the way out wedges the process forever.
        Returns True once the pid needs no resuming (delivered, gone,
        or not ours); False, counted and reported as a
        ``hostalps.resume_failed`` event, when the budget ran out."""
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
        return self.step.snapshot(self._now())

    def restore_from_journal(self) -> bool:
        """Replay the attached journal's latest snapshot, if usable: the
        step's restore and rejoin (docs/resilience.md), with the
        journaled core as the membership.  Returns False, leaving the
        fresh-start state untouched, for a missing, empty or corrupt
        journal."""
        if self.journal is None:
            return False
        rec = self.journal.recover()
        if rec.snapshot is None:
            return False
        try:
            state = self.step.restore(rec.snapshot)
        except JournalCorruptError:
            return False
        # A sid the journaled core lacks departed, and one the
        # constructor lacks joined through submit_pid.
        members = self.policy.members
        for sid in [sid for sid in members if sid not in self.core.subjects]:
            del members[sid]
        for sid, st in self.core.subjects.items():
            members.setdefault(sid, ProcessSubject(sid, st.share, sid))
        self._proc_sids = _proc_sids(members)
        self._refresh_principals()
        _, debt_us, _ = self.step.rejoin(state)
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
