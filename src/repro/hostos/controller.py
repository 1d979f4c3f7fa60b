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
from repro.errors import (
    HostOSError,
    JournalCorruptError,
    SchedulerConfigError,
)
from repro.hostos import procfs
from repro.overload.ladder import Rung
from repro.resilience.journal import (
    drain_debt,
    journal_quantum,
    restore_core,
    schedule_debt,
    state_snapshot,
    validate_snapshot,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer
    from repro.overload.guard import OverloadGuard
    from repro.resilience.journal import FileJournal
    from repro.sharetree.tree import ShareNode, ShareTree


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
            now_fn=lambda: int(time.monotonic() * 1_000_000),
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
        #: Overload protection (docs/overload.md).  The guard's state is
        #: volatile by design: after a journaled restart protection
        #: re-engages from fresh slip evidence rather than replaying the
        #: pre-crash ladder position.
        self.overload = overload
        #: Shares of pids currently shed to best-effort (pid -> share).
        self._shed_shares: dict[int, int] = {}
        self._prev_wake_us: Optional[int] = None
        self._wake_cadence_us = self.quantum_us
        #: Hierarchical share tree (docs/share_tree.md); leaf sids are
        #: pids on the host.  A flat-equivalent tree resolves to the raw
        #: shares verbatim, so attaching it changes nothing.
        self.sharetree = sharetree
        if sharetree is not None:
            self.reweigh_from_tree()

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
                self.core.remove_subject(pid)
                continue
            self._last_read[pid] = usage
            self._initial[pid] = usage
        deadline = t_start + duration_s
        boundary = t_start + self.quantum_us / 1_000_000
        try:
            while True:
                now = time.monotonic()
                if now >= deadline:
                    break
                if boundary > now:
                    time.sleep(boundary - now)
                # Skip past any boundaries we overslept.
                now = time.monotonic()
                guard = self.overload
                if guard is not None:
                    # Cadence slip: the gap between consecutive wakes
                    # minus the stride we intended when we went to sleep.
                    # Wake *dispatch* is usually prompt even under load;
                    # starvation shows as the whole loop iteration (reads,
                    # signals, the sleep) taking longer than the stride.
                    now_us = int(now * 1_000_000)
                    prev = self._prev_wake_us
                    self._prev_wake_us = now_us
                    if prev is not None:
                        delta = guard.observe_wake(
                            now_us - prev - self._wake_cadence_us,
                            self.quantum_us,
                        )
                        if delta:
                            self._apply_ladder(delta)
                    if guard.admission.depth and not guard.admission_paused:
                        self._drain_admissions()
                tree = self.sharetree
                if (
                    tree is not None
                    and tree._gates
                    and tree.pending_admissions
                ):
                    self._drain_tree_admissions()
                q_s = self.quantum_us / 1_000_000
                stride_s = q_s
                if guard is not None:
                    stride_s = q_s * guard.stretch_factor
                missed = int((now - boundary) / stride_s)
                boundary += (missed + 1) * stride_s
                self._wake_cadence_us = int(stride_s * 1_000_000)
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
            overload_stats=(
                self.overload.stats() if self.overload is not None else None
            ),
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
                int(time.monotonic() * 1_000_000),
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
    # Overload protection (docs/overload.md)
    # ------------------------------------------------------------------
    def submit_pid(
        self, pid: int, share: int, *, path: Optional[str] = None
    ) -> bool:
        """Offer a new pid to the group through admission control.

        Without a guard (or with spare capacity) the pid joins the
        enforced set immediately; otherwise it waits in the FIFO
        admission queue and drains at a later wake.  Returns True when
        admitted immediately.

        With a share tree attached, ``path`` places the arrival in the
        tree and routes it through its subtree's *own* admission gate
        (nearest gated ancestor; docs/share_tree.md) instead of the
        whole-group queue — the same composition as the sim agent's
        ``submit_subject(path=...)``.
        """
        if share < 1:
            raise HostOSError(f"share must be >= 1, got {share}")
        if path is not None:
            if self.sharetree is None:
                raise HostOSError(
                    "submit_pid(path=...) requires an attached share tree"
                )
            return self._submit_tree_pid(pid, share, path)
        guard = self.overload
        if guard is None:
            return self._admit_pid(pid, share)
        admitted = guard.admission.submit(
            (pid, share), len(self.core.subjects), paused=guard.admission_paused
        )
        if admitted:
            self._admit_pid(pid, share)
            self._emit_overload("overload.admitted", pid=pid)
        else:
            self._emit_overload(
                "overload.queued", pid=pid, depth=guard.admission.depth
            )
        return admitted

    def _admit_pid(self, pid: int, share: int) -> bool:
        """Add a live pid to the enforced set; False if it is gone."""
        try:
            usage = procfs.cpu_time_us(pid)
        except HostOSError:
            return False
        self.core.add_subject(pid, share)
        self._last_read[pid] = usage
        self._initial.setdefault(pid, usage)
        return True

    def _drain_admissions(self) -> None:
        """Admit queued arrivals into spare capacity."""
        guard = self.overload
        ready = guard.admission.admit_ready(
            len(self.core.subjects), paused=guard.admission_paused
        )
        for pid, share in ready:
            if self._admit_pid(pid, share):
                self._emit_overload("overload.admitted", pid=pid)

    # ------------------------------------------------------------------
    # Hierarchical share tree (docs/share_tree.md)
    # ------------------------------------------------------------------
    def reweigh_from_tree(self) -> None:
        """Re-apply the tree's effective shares to the core.

        ``AlpsCore.set_share`` early-outs on a zero delta, so this is
        free whenever the resolved shares already match — the
        flat-equivalence case.
        """
        tree = self.sharetree
        if tree is None:
            return
        core_subjects = self.core.subjects
        for pid, share in tree.effective_shares().items():
            if pid in core_subjects:
                self.core.set_share(pid, share)

    def set_tree_weight(self, path: str, weight: int) -> None:
        """Reweight a tree node; every descendant leaf follows."""
        tree = self.sharetree
        if tree is None:
            raise HostOSError("no share tree attached")
        tree.set_weight(path, weight)
        self.reweigh_from_tree()

    def _active_leaves_under(self, gate: "ShareNode") -> int:
        """Admitted members of a gated subtree (its enforced count)."""
        tree = self.sharetree
        assert tree is not None
        core_subjects = self.core.subjects
        return sum(
            1 for leaf in tree.leaves(gate) if leaf.sid in core_subjects
        )

    def _submit_tree_pid(self, pid: int, share: int, path: str) -> bool:
        """Route an arrival through its subtree's admission gate.

        The leaf is only created in the tree once admitted — a queued
        arrival must not dilute its siblings' effective shares while
        it waits.  Queue entries are ``(pid, share, path)`` triples.
        """
        tree = self.sharetree
        assert tree is not None
        parent = tree.node(path.rpartition("/")[0])
        gate = tree.admission_for(parent)
        if gate is not None:
            assert gate.admission is not None
            admitted = gate.admission.submit(
                (pid, share, path), self._active_leaves_under(gate)
            )
            if not admitted:
                self._emit_overload(
                    "sharetree.queued", pid=pid, path=path,
                    depth=gate.admission.depth,
                )
                return False
        tree.leaf(path, sid=pid, weight=share)
        if not self._admit_pid(pid, share):
            tree.remove(path)  # died before admission
            return False
        self.reweigh_from_tree()
        self._emit_overload("sharetree.admitted", pid=pid, path=path)
        return True

    def _drain_tree_admissions(self) -> None:
        """Admit queued subtree arrivals into spare capacity (per gate)."""
        tree = self.sharetree
        assert tree is not None
        admitted_any = False
        for gate in tree.gates():
            queue = gate.admission
            if queue is None or not queue.depth:
                continue
            for pid, share, path in queue.admit_ready(
                self._active_leaves_under(gate)
            ):
                try:
                    tree.leaf(path, sid=pid, weight=share)
                except SchedulerConfigError:
                    continue  # its branch vanished while it waited
                if not self._admit_pid(pid, share):
                    tree.remove(path)
                    continue
                admitted_any = True
                self._emit_overload("sharetree.admitted", pid=pid, path=path)
        if admitted_any:
            self.reweigh_from_tree()

    def _apply_ladder(self, delta: int) -> None:
        """Enact a ladder transition (same order as the sim agent)."""
        guard = self.overload
        self.core.postpone_boost = guard.postpone_boost
        self._emit_overload(
            "overload.engage" if delta > 0 else "overload.relax",
            rung=int(guard.rung),
            slip_ewma_quanta=round(guard.slip.ewma_quanta, 3),
        )
        if delta > 0 and guard.rung >= Rung.SHED:
            self._shed_members()
        elif delta < 0 and guard.rung < Rung.SHED and guard.shed_sids:
            self._readmit_shed()

    def _shed_members(self) -> None:
        """SHED rung: release the lowest-share tail to best-effort."""
        guard = self.overload
        quota = guard.shed_quota(len(self.core.subjects))
        if quota <= 0:
            return
        shares = {pid: st.share for pid, st in self.core.subjects.items()}
        for pid in guard.select_shed(shares, quota):
            state = self.core.remove_subject(pid)
            self._shed_shares[pid] = state.share
            guard.note_shed(pid)
            # Best-effort means the kernel schedules it, not us.
            if pid in self._stopped and self._resume_one(pid):
                self._stopped.discard(pid)
            self._emit_overload("overload.shed", pid=pid)

    def _readmit_shed(self) -> None:
        """Walking back below SHED: return the shed tail to enforcement.

        Best-effort consumption while shed is deliberately forgiven —
        the read baseline restarts at the current procfs value and the
        pid rejoins with a full allowance like any other arrival.
        """
        guard = self.overload
        for pid in list(guard.shed_sids):
            share = self._shed_shares.pop(pid, None)
            if share is None or not self._admit_pid(pid, share):
                guard.note_departed(pid)
                continue
            guard.note_readmitted(pid)
            self._emit_overload("overload.readmit", pid=pid)

    def _emit_overload(self, name: str, **fields) -> None:
        obs = self.observer
        if obs is not None and obs.enabled:
            obs.events.emit(int(time.monotonic() * 1_000_000), name, **fields)

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
        if pid in self.core.subjects:
            self.core.remove_subject(pid)
        self._stopped.discard(pid)
        tree = self.sharetree
        if tree is not None and tree.discard_sid(pid):
            self.reweigh_from_tree()

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
                int(time.monotonic() * 1_000_000),
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
            int(time.monotonic() * 1_000_000),
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
        try:
            rec = self.journal.recover()
            if rec.snapshot is None:
                return False
            payload = validate_snapshot(rec.snapshot)
            ag = payload.get("agent", {})
            last_read = {
                int(pid): int(usage)
                for pid, usage in ag.get("last_read", {}).items()
            }
            initial = {
                int(pid): int(usage)
                for pid, usage in ag.get("initial", {}).items()
            }
            stopped = {int(pid) for pid in ag.get("stopped", [])}
            deferred = {
                int(pid): int(owed)
                for pid, owed in ag.get("debt", {}).items()
                if int(owed) > 0
            }
            restore_core(self.core, payload["core"])
        except (JournalCorruptError, TypeError, ValueError, KeyError):
            return False
        self._last_read = {}
        self._initial = initial
        self._stopped = stopped
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
                int(time.monotonic() * 1_000_000),
                "hostalps.recovered",
                subjects=len(self.core.subjects),
                records=rec.records,
                debt_us=debt_us,
            )
        return True
