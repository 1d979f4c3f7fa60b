"""A real user-level ALPS controller for Linux.

Drives the same :class:`~repro.alps.algorithm.AlpsCore` as the
simulator, but against live processes: progress comes from
``/proc/<pid>/stat``, eligibility is enacted with SIGSTOP/SIGCONT, and
the quantum timer is an absolute-deadline sleep loop.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from repro.alps.algorithm import AlpsCore, Measurement
from repro.alps.instrumentation import CycleLog
from repro.alps.policy import AlpsPolicy
from repro.alps.subjects import ProcessSubject
from repro.errors import (
    HostOSError,
    JournalCorruptError,
    SchedulerConfigError,
)
from repro.hostos import procfs
from repro.resilience.journal import (
    drain_debt,
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


@dataclass(slots=True)
class HostAlpsReport:
    """Outcome of a live run."""

    duration_s: float
    cycles: int
    cycle_log: CycleLog
    #: CPU time (µs) each controlled pid consumed during the run.
    consumed_us: dict[int, int]
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
    """User-level proportional-share scheduler over real pids.

    Note: quanta below ~20 ms are dominated by Python/sleep jitter and
    by the tick resolution of /proc CPU accounting; the simulator is
    the instrument for quantitative claims (see package docstring).

    Robustness (docs/fault_model.md): transient procfs read errors are
    retried within ``read_retry_budget`` before a pid is declared dead;
    ``_signal`` discriminates a vanished process (ESRCH — forget it)
    from one we may not signal (EPERM — stop scheduling it, it cannot
    be controlled); and exit always runs :meth:`_resume_all`, which
    resumes by *kernel truth* (any controlled pid in procfs state
    ``T``), not just the controller's own stop-set, so a crash between
    a SIGSTOP and its bookkeeping cannot wedge a process.
    """

    def __init__(
        self,
        shares: Mapping[int, int],
        *,
        quantum_s: float = 0.05,
        optimized: bool = True,
        track_io: bool = True,
        read_retry_budget: int = 2,
        resume_retry_budget: int = 3,
        journal: Optional["FileJournal"] = None,
        observer: Optional["Observer"] = None,
        overload: Optional["OverloadGuard"] = None,
        sharetree: Optional["ShareTree"] = None,
    ) -> None:
        if quantum_s <= 0:
            raise HostOSError(f"quantum must be positive, got {quantum_s}")
        if read_retry_budget < 0:
            raise HostOSError(
                f"read_retry_budget must be >= 0, got {read_retry_budget}"
            )
        if resume_retry_budget < 0:
            raise HostOSError(
                f"resume_retry_budget must be >= 0, got {resume_retry_budget}"
            )
        self.quantum_us = int(quantum_s * 1_000_000)
        self.track_io = track_io
        self.read_retry_budget = read_retry_budget
        self.resume_retry_budget = resume_retry_budget
        self.journal = journal
        self.observer = observer
        self.core = AlpsCore(
            dict(shares),
            self.quantum_us,
            optimized=optimized,
            now_fn=self._now,
        )
        self._last_read: dict[int, int] = {}
        self._stopped: set[int] = set()
        self._initial: dict[int, int] = {}
        #: pids dropped because the controller may not signal them (EPERM).
        self.uncontrollable: set[int] = set()
        #: Transient procfs reads that needed a retry (statistics).
        self.read_retries = 0
        #: SIGCONTs retried after a transient EINTR/EAGAIN failure.
        self.resume_retries = 0
        #: pids the controller could not resume within its retry budget.
        self.resume_failures = 0
        #: Whether state was replayed from the journal (crash recovery).
        self.recovered = False
        #: Downtime CPU debt (µs) per pid awaiting amortized repayment.
        self._deferred_debt: dict[int, int] = {}
        #: Journaled state changed outside ``_one_quantum`` since the
        #: last record (a run starting or winding down): the next
        #: record must be a checkpoint, a delta would miss it.
        self._journal_stale = True
        #: pids signalled after the last record was written; the next
        #: delta carries where that left them in the stop-set.
        self._journal_signalled: list[int] = []
        #: Admission, degradation and share-tree policy
        #: (:mod:`repro.alps.policy`); its items are pids as subjects.
        #: The guard's state is volatile by design: after a journaled
        #: restart protection re-engages from fresh slip evidence rather
        #: than replaying the pre-crash ladder position.  Tree leaf sids
        #: are pids; a flat-equivalent tree changes nothing.
        self.policy = AlpsPolicy(
            self.core, self._core_members(), self._admit, self._release, self._now
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
        t_start = time.monotonic()
        own_cpu_start = time.process_time()
        self._journal_stale = True  # baselines below, _resume_all after
        for pid in list(self.core.subjects):
            if pid in self._initial and pid in self._last_read:
                # Journal-restored: the outage debt was already charged
                # (capped) at restore time, and _initial keeps lifetime
                # consumption accounting spanning the crash.
                continue
            try:
                usage = procfs.cpu_time_us(pid)
            except HostOSError:
                self._drop_subject(pid)
                continue
            self._last_read[pid] = usage
            self._initial[pid] = usage
        deadline = t_start + duration_s
        boundary = t_start + self.quantum_us / 1_000_000
        guard = self.policy.guard
        try:
            while True:
                now = time.monotonic()
                if now >= deadline:
                    break
                if boundary > now:
                    time.sleep(boundary - now)
                # Skip past any boundaries we overslept.
                now = time.monotonic()
                # Cadence slip: wake *dispatch* is usually prompt even
                # under load; starvation shows as the whole loop
                # iteration (reads, signals, the sleep) taking longer
                # than the stride.
                self.policy.wake(int(now * 1_000_000))
                q_s = self.quantum_us / 1_000_000
                stride_s = q_s
                if guard is not None:
                    stride_s = q_s * guard.stretch_factor
                missed = int((now - boundary) / stride_s)
                boundary += (missed + 1) * stride_s
                self.policy.cadence_us = int(stride_s * 1_000_000)
                self._one_quantum()
        finally:
            self._resume_all()
        t_end = time.monotonic()
        own_cpu_us = int((time.process_time() - own_cpu_start) * 1_000_000)
        consumed = {}
        for pid, start in self._initial.items():
            try:
                final = procfs.cpu_time_us(pid)
            except HostOSError:
                # Process died mid-run: its last successful reading is
                # the best (and an under-) estimate of what it consumed.
                final = self._last_read.get(pid, start)
            consumed[pid] = final - start
        return HostAlpsReport(
            duration_s=t_end - t_start,
            cycles=self.core.cycles_completed,
            cycle_log=self.core.cycle_log,
            consumed_us=consumed,
            controller_cpu_us=own_cpu_us,
            overload_stats=guard.stats() if guard is not None else None,
        )

    # ------------------------------------------------------------------
    def _one_quantum(self) -> None:
        due = self.core.begin_quantum()
        measurements: dict[int, Measurement] = {}
        for pid in due:
            stat = self._read_stat_with_retry(pid)
            if stat is None:
                # Process died: remove it from scheduling.
                self._drop_subject(pid)
                continue
            usage = stat.cpu_time_us
            consumed = usage - self._last_read.get(pid, usage)
            if consumed < 0:
                consumed = 0  # never charge a backwards-running counter
            self._last_read[pid] = usage
            if self._deferred_debt:
                # Post-crash repayment: a share-proportional sliver of
                # the outage debt rides on top of measured consumption.
                st = self.core.subjects.get(pid)
                if st is not None:
                    consumed += drain_debt(
                        self._deferred_debt, pid, st.share,
                        self.quantum_us, self.core.total_shares,
                    )
            blocked = self.track_io and stat.state in ("S", "D")
            measurements[pid] = Measurement(consumed_us=consumed, blocked=blocked)
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
                touched={"last_read": (self._last_read, due)},
            )
            self._journal_stale = False
            self._journal_signalled = decisions.to_suspend + decisions.to_resume
        for pid in decisions.to_suspend:
            self._signal(pid, signal.SIGSTOP)
        for pid in decisions.to_resume:
            self._signal(pid, signal.SIGCONT)

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

    def _core_members(self) -> dict[int, ProcessSubject]:
        """The policy's member map for the core's pids (sid == pid)."""
        return {
            pid: ProcessSubject(pid, st.share, pid)
            for pid, st in self.core.subjects.items()
        }

    # -- the policy's port (repro.alps.policy) ----------------------------
    def _admit(self, item: ProcessSubject) -> int:
        """Baseline a joining pid; 0 if it is gone."""
        pid = item.sid
        try:
            usage = procfs.cpu_time_us(pid)
        except HostOSError:
            return 0
        self._last_read[pid] = usage
        self._initial.setdefault(pid, usage)
        return 1

    def _release(self, pid: int) -> int:
        """Hand a departing pid back to the kernel: resume it if stopped."""
        if pid not in self._stopped:
            return 0
        if self._resume_one(pid):
            self._stopped.discard(pid)
        return 1

    def _now(self) -> int:
        return int(time.monotonic() * 1_000_000)

    def _read_stat_with_retry(self, pid: int):
        """Read ``/proc/<pid>/stat``, retrying transient failures.

        A read that fails while the pid still exists (EAGAIN-style
        glitch, torn read) is retried up to ``read_retry_budget``
        times; only a pid that is actually gone returns None.
        """
        for attempt in range(self.read_retry_budget + 1):
            try:
                return procfs.read_proc_stat(pid)
            except HostOSError:
                if not procfs.is_alive(pid):
                    return None
                if attempt < self.read_retry_budget:
                    self.read_retries += 1
        return None

    def _drop_subject(self, pid: int) -> None:
        """Stop scheduling ``pid`` (death or EPERM)."""
        self.policy.depart((pid,))
        self._stopped.discard(pid)

    def _signal(self, pid: int, signo: int) -> None:
        try:
            os.kill(pid, signo)
        except ProcessLookupError:  # ESRCH: gone — forget it
            self._stopped.discard(pid)
            return
        except PermissionError:  # EPERM: alive but not ours to control
            self.uncontrollable.add(pid)
            self._drop_subject(pid)
            return
        if signo == signal.SIGSTOP:
            self._stopped.add(pid)
        else:
            self._stopped.discard(pid)

    def _resume_all(self) -> None:
        """Resume every process this controller may have stopped.

        Consults kernel truth in addition to the stop-set: any pid the
        controller ever scheduled that sits in procfs state ``T`` gets
        a SIGCONT, covering pids stopped right before an exception (or
        under bookkeeping lost to a crash).

        A transient ``kill(2)`` failure (EINTR, EAGAIN — e.g. a signal
        mid-syscall, or a momentarily full signal queue) is retried with
        bounded backoff rather than swallowed: a SIGCONT lost on the way
        out wedges the process forever.  A pid still unresumed after the
        retry budget is counted in :attr:`resume_failures` and reported
        as a ``hostalps.resume_failed`` obs event, and stays in the
        stop-set so a later pass (or journaled restart) tries again.
        """
        candidates = set(self._stopped) | set(self._initial)
        candidates.update(self.core.subjects)
        for pid in candidates:
            if pid not in self._stopped:
                try:
                    if procfs.proc_state(pid) != "T":
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
        delay_s = 0.001
        for attempt in range(self.resume_retry_budget + 1):
            try:
                os.kill(pid, signal.SIGCONT)
                return True
            except (ProcessLookupError, PermissionError):
                return True  # gone, or not ours: nothing left to recover
            except (InterruptedError, BlockingIOError):
                if attempt < self.resume_retry_budget:
                    self.resume_retries += 1
                    time.sleep(delay_s)
                    delay_s = min(delay_s * 2, 0.05)
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
                self.core, rec.snapshot, ("last_read", "initial", "debt")
            )
        except JournalCorruptError:
            return False
        last_read = state["last_read"]
        deferred = state["debt"]
        self._last_read = {}
        self._initial = state["initial"]
        self._stopped = state["stopped"]
        self.policy.members = self._core_members()
        debts: dict[int, int] = {}
        for pid in list(self.core.subjects):
            try:
                usage = procfs.cpu_time_us(pid)
            except HostOSError:
                self._drop_subject(pid)
                self._initial.pop(pid, None)
                continue
            base = last_read.get(pid)
            if base is not None and usage > base:
                debts[pid] = usage - base
            self._last_read[pid] = usage
        debt_us = schedule_debt(self.core, debts, deferred)
        self._deferred_debt = deferred
        self._stopped = {pid for pid in self._stopped if procfs.is_alive(pid)}
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
