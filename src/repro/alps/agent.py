"""The ALPS agent: a simulated *process* running the ALPS algorithm.

The agent is an ordinary unprivileged process in the simulated kernel.
Every quantum its timer fires; once the kernel actually schedules it,
it pays CPU for receiving the timer event and for reading the progress
of the subjects that are due (per the Table 1 cost model), runs the
Figure 3 algorithm, pays for and sends the SIGSTOP/SIGCONT transitions,
and sleeps until the next quantum boundary.

Because the agent competes for the CPU like everyone else, everything
the paper observes about user-level scheduling — sampling jitter,
overhead, and the loss of control when the agent's work exceeds its
fair share (Section 4.2) — emerges from the simulation rather than
being asserted.

Robustness (docs/fault_model.md): the agent survives subject death at
any point of the measurement cycle, transient accounting-read failures
(bounded retries), lost or delayed signal delivery (post-delivery
verification against kernel process state, bounded re-sends, and
wedge healing on later measurements), its own stalls (missed quantum
boundaries are detected and the read baselines re-established instead
of issuing a burst of catch-up decisions), and crash-with-restart
(:meth:`AlpsAgent.restart` wipes volatile state; the next activation
reconciles the stop-set against kernel truth so no subject is left
wedged in SIGSTOP).

Crash *safety* (docs/resilience.md): with a journal attached via
:meth:`AlpsAgent.attach_journal` the agent appends one checksummed
record of its scheduling state per quantum (what the quantum touched,
or a full snapshot when that is not enough), and :meth:`restart`
replays them — the restarted agent resumes the same cycle with its
fairness debt (allowances, cycle remainder, read baselines) intact
instead of forgiving everything that happened while it was down.  A
corrupt or empty journal falls back to the lossy reconciliation path
above.  Journal appends charge no CPU and draw no engine randomness,
so journaling is schedule-invisible until a crash actually happens.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Sequence

from repro.alps.algorithm import AlpsCore, QuantumDecisions
from repro.alps.config import AlpsConfig
from repro.alps.costs import CostAccumulator
from repro.alps.instrumentation import CycleLog
from repro.alps.measure import measure_due
from repro.alps.policy import AlpsPolicy
from repro.alps.state import Eligibility
from repro.alps.subjects import ProcessSubject, Subject
from repro.errors import (
    JournalCorruptError,
    NoSuchProcessError,
    TransientReadError,
)
from repro.kernel.actions import Action, Compute, Sleep
from repro.kernel.signals import SIGCONT, SIGSTOP
from repro.resilience.journal import (
    journal_quantum,
    restore_state,
    schedule_debt,
    state_snapshot,
    validate_snapshot,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.kernel.behaviors import Behavior
    from repro.kernel.kapi import KernelAPI
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.obs.observer import Observer
    from repro.overload.guard import OverloadGuard
    from repro.resilience.journal import MemoryJournal
    from repro.sharetree.tree import ShareTree


_EMPTY_SET: frozenset[int] = frozenset()


class _Phase(enum.Enum):
    INIT = "init"
    SLEEPING = "sleeping"
    MEASURING = "measuring"
    SIGNALING = "signaling"
    RECONCILING = "reconciling"
    RECOVERING = "recovering"


class AlpsAgent:
    """Behavior implementing one ALPS scheduler over a set of subjects."""

    def __init__(self, subjects: Sequence[Subject], config: AlpsConfig) -> None:
        if not subjects:
            raise ValueError("AlpsAgent requires at least one subject")
        self.cfg = config
        self.subjects: dict[int, Subject] = {s.sid: s for s in subjects}
        if len(self.subjects) != len(subjects):
            raise ValueError("subject ids must be unique")
        # Single-process subjects, cached for the per-quantum liveness
        # sweep; kept in step with membership by _admit, _release and
        # _reap_dead_subjects.
        self._proc_subjects: list[ProcessSubject] = [
            s for s in self.subjects.values() if isinstance(s, ProcessSubject)
        ]
        self.core = AlpsCore(
            {s.sid: s.share for s in subjects},
            config.quantum_us,
            optimized=config.optimized,
        )
        #: The kapi of the current entry point, which the policy's port
        #: and the read retry act through: the agent's own activations
        #: see the surface its behavior wrapper hands it, external
        #: callers their own.
        self._kapi: Optional["KernelAPI"] = None
        #: Admission, degradation and share-tree policy
        #: (:mod:`repro.alps.policy`); ``subjects`` is its member map.
        self.policy = AlpsPolicy(
            self.core, self.subjects, self._admit, self._release, self._now
        )
        self._acc = CostAccumulator()
        # Hoisted scalars for the per-quantum charge arithmetic (the
        # cost model is a frozen dataclass; these cannot drift).
        costs = config.costs
        self._quantum_us = config.quantum_us
        self._cost_timer_us = costs.timer_event_us
        self._cost_measure_fixed = costs.measure_fixed_us
        self._cost_measure_per = costs.measure_per_proc_us
        self._cost_signal_us = costs.signal_us
        #: Most recent wake's timer slip (µs); 0 without a guard.  The
        #: supervision wrapper feeds it into its heartbeat on every
        #: action, so starvation shows up as supervisor pressure, not
        #: just as an overload metric; it is kept here as a plain
        #: attribute, refreshed where the guard observes a wake.
        self.timer_slip_us = 0
        self._phase = _Phase.INIT
        self._epoch = 0
        self._next_refresh = 0
        self._due: list[tuple[int, list[int]]] = []
        self._pending_signals: list[tuple[int, int]] = []  # (pid, signo)
        self._last_read: dict[int, int] = {}
        self._stopped_pids: set[int] = set()
        #: Kernel exit counter at the last liveness sweep; -1 forces the
        #: next sweep (initial state, and after a crash-restart).
        self._seen_exit_count = -1
        self._cumulative: dict[int, int] = {}
        #: The boundary the agent intended to wake at (stall detection).
        self._sleep_target = 0
        #: Fractional CPU owed for recovery work (retries), folded into
        #: the next quantum's charge.
        self._deferred_cost_us = 0.0
        #: Number of algorithm invocations performed (timer events serviced).
        self.invocations = 0
        #: Total progress reads performed (for overhead statistics).
        self.reads = 0
        #: Total signals sent.
        self.signals_sent = 0
        #: Delay (µs) between each quantum boundary and the moment the
        #: progress reads actually executed — the sampling-latency
        #: distribution whose growth is the §4.2 breakdown.
        self.sampling_delays_us: list[int] = []
        self._wake_boundary = 0
        # -- robustness statistics (docs/fault_model.md) ---------------
        #: Quantum boundaries the agent slept through (stalls).
        self.missed_boundaries = 0
        #: Times the agent re-established its read baselines after a stall.
        self.rebaselines = 0
        #: Accounting reads retried after a transient failure.
        self.read_retries = 0
        #: Measurements skipped because the retry budget was exhausted.
        self.read_failures = 0
        #: Signals re-sent because delivery was not observed.
        self.signal_retries = 0
        #: Wedged subjects resumed outside a normal eligibility transition.
        self.heals = 0
        #: Crash-with-restart recoveries performed.
        self.restarts = 0
        #: Impossible observations tolerated (e.g. CPU counters running
        #: backwards); nonzero values indicate substrate misbehavior.
        self.anomalies = 0
        #: Observability handle (repro.obs), inherited from the kernel's
        #: attached observer at first activation.  ``None`` keeps every
        #: instrumentation point at a single attribute read; observation
        #: is read-only and schedule-invisible either way.
        self._obs: Optional["Observer"] = None
        # -- crash safety (docs/resilience.md) -------------------------
        #: Write-ahead journal (repro.resilience); None = PR 1 behavior.
        self._journal: Optional["MemoryJournal"] = None
        #: Journaled state changed outside a measurement since the last
        #: record (baselines reset, a pid forgotten, a restart): the
        #: next record must be a checkpoint, a delta would miss it.
        self._journal_stale = True
        #: The signals queued at the last record; delivering them moved
        #: the stop-set, which the next delta must carry.
        self._journal_signals: list[tuple[int, int]] = []
        #: Snapshot payload recovered by restart(), consumed by the
        #: RECOVERING activation.
        self._recovered: Optional[dict] = None
        #: Restarts that replayed the journal successfully.
        self.journal_recoveries = 0
        #: Restarts that fell back to lossy reconciliation (corrupt or
        #: empty journal).
        self.recovery_fallbacks = 0
        #: Whether the most recent restart recovered from the journal.
        self.last_restart_journaled = False
        #: Downtime CPU debt (µs) per subject awaiting amortized
        #: repayment (:func:`~repro.resilience.journal.drain_debt`).
        self._deferred_debt: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Introspection used by experiments
    # ------------------------------------------------------------------
    @property
    def cycle_log(self) -> CycleLog:
        """Per-cycle consumption log (the paper's accuracy instrument)."""
        return self.core.cycle_log

    def set_share(self, sid: int, share: int) -> None:
        """Reweight a subject mid-run (takes effect next quantum)."""
        self.policy.set_share(sid, share)

    def cumulative_cpu_of(self, sid: int) -> int:
        """CPU (µs) consumed by subject ``sid`` since control began, as
        known from the agent's own measurements."""
        subj = self.subjects.get(sid)
        if subj is None:
            return 0
        return self._cumulative.get(sid, 0)

    # ------------------------------------------------------------------
    # Crash / shutdown recovery surface
    # ------------------------------------------------------------------
    def attach_journal(self, journal: "MemoryJournal") -> None:
        """Attach a write-ahead journal (:mod:`repro.resilience.journal`).

        The agent appends one record per quantum (at the end of the
        measurement phase, before signals are delivered) — a delta of
        the rows a plain quantum touched, a full :meth:`snapshot_state`
        checkpoint otherwise — and :meth:`restart` replays the recovery
        point.  The journal object must survive the crash — it models
        persistent storage.
        """
        self._journal = journal

    # ------------------------------------------------------------------
    # Overload protection and share-tree surface (docs/overload.md,
    # docs/share_tree.md); the policy itself is repro.alps.policy
    # ------------------------------------------------------------------
    def attach_overload(self, guard: "OverloadGuard") -> None:
        """Attach an overload guard (:mod:`repro.overload`).

        Every wake feeds the guard the timer slip (actual minus
        scheduled delivery); the guard's ladder answers with the current
        quantum stretch, which the agent sleeps by, and the
        measurement-postponement boost and shed decisions, which the
        policy enacts.  Like the journal and the observer, an
        attached-but-idle guard is schedule-invisible.
        """
        self.policy.guard = guard
        self._note_slip()

    @property
    def overload(self) -> Optional["OverloadGuard"]:
        """The attached overload guard, if any (obs/top surface)."""
        return self.policy.guard

    def _note_slip(self) -> None:
        """Refresh :attr:`timer_slip_us` from the guard's slip monitor."""
        guard = self.policy.guard
        if guard is not None:
            self.timer_slip_us = int(guard.slip.last_quanta * self._quantum_us)

    def attach_sharetree(self, tree: "ShareTree") -> None:
        """Attach a share tree (:mod:`repro.sharetree`).

        The tree becomes the authority for every subject's share: its
        recursive weights are resolved to flat integer effective shares
        and applied to the core immediately (and again on every tree
        mutation, admission, or subject death).  A flat-equivalent tree
        resolves to the raw weights, so attaching it changes nothing —
        the same schedule-invisibility discipline as the journal, the
        observer, and the overload guard.
        """
        self.policy.tree = tree
        self.policy.reweigh()

    @property
    def sharetree(self) -> Optional["ShareTree"]:
        """The attached share tree, if any (obs/top surface)."""
        return self.policy.tree

    def reweigh_from_tree(self) -> None:
        """Re-apply the tree's effective shares to the core."""
        self.policy.reweigh()

    def set_tree_weight(self, path: str, weight: int) -> None:
        """Reweight a tree node; every descendant leaf follows."""
        self.policy.set_tree_weight(path, weight)

    def submit_subject(
        self, subject: Subject, kapi: "KernelAPI", *, path: Optional[str] = None
    ) -> bool:
        """Offer a new arrival to the group through admission control.

        Returns True iff the subject joined the enforced set now; a
        queued arrival joins at a later wake, a dead one never.  With a
        share tree attached, ``path`` places the arrival in the tree
        behind its subtree's own gate
        (:meth:`~repro.alps.policy.AlpsPolicy.submit`).
        """
        self._kapi = kapi
        return self.policy.submit(subject, path)

    def release_subject(self, sid: int, kapi: "KernelAPI") -> Subject:
        """Withdraw a subject from this agent (cell migration).

        The control-plane half of rebalancing: the subject leaves the
        enforced set, its stopped pids are resumed so it is never
        wedged between cells, and the subject object is returned for
        :meth:`adopt_subject` on the destination agent.
        """
        self._kapi = kapi
        subj = self.policy.release(sid)
        self._cumulative.pop(sid, None)
        return subj

    def adopt_subject(self, subject: Subject, kapi: "KernelAPI") -> bool:
        """Receive a migrating subject (already admitted in its old
        cell, so admission control is deliberately bypassed)."""
        self._kapi = kapi
        return self.policy.adopt(subject)

    # -- the policy's port (repro.alps.policy) ----------------------------
    def _admit(self, subject: Subject) -> int:
        """Baseline a joining subject's pids; 0 if it died first."""
        kapi = self._kapi
        subject.refresh(kapi)
        pids = subject.pids(kapi)
        if not pids:
            return 0
        if isinstance(subject, ProcessSubject):
            self._proc_subjects.append(subject)
        self._cumulative.setdefault(subject.sid, 0)
        for pid in pids:
            self._set_baseline(kapi, pid)
        return len(pids)

    def _release(self, sid: int) -> int:
        """Resume and forget a departing member's pids; returns how many
        stopped ones got a SIGCONT.  Delivered at once: the pending list
        belongs to the measurement phase."""
        kapi = self._kapi
        subj = self.subjects[sid]
        if isinstance(subj, ProcessSubject):
            self._proc_subjects.remove(subj)
        resumed = 0
        for pid in subj.pids(kapi):
            if pid in self._stopped_pids:
                resumed += 1
                try:
                    kapi.kill(pid, SIGCONT)
                    self.signals_sent += 1
                except NoSuchProcessError:
                    pass
            self._forget_pid(pid)
        return resumed

    def _now(self) -> int:
        return self._kapi.now

    def snapshot_state(self, now: int) -> dict:
        """JSON-safe snapshot of all state a restart must not lose."""
        return state_snapshot(
            self.core,
            now,
            self._stopped_pids,
            {
                "last_read": self._last_read,
                "cumulative": self._cumulative,
                "debt": self._deferred_debt,
            },
            epoch=self._epoch,
        )

    def _journal_quantum(
        self,
        journal: "MemoryJournal",
        now: int,
        measurements: dict[int, tuple[int, bool]],
        decisions: QuantumDecisions,
    ) -> None:
        """Append this quantum's record (see :func:`journal_quantum`)."""
        signals = self._pending_signals
        journal_quantum(
            journal,
            lambda: self.snapshot_state(now),
            self.core,
            now,
            full=decisions.full_sweep or self._journal_stale,
            stopped=self._stopped_pids,
            # Delivered since the last record, or healed just now.
            signalled=[pid for pid, _ in self._journal_signals + signals],
            debt=self._deferred_debt,
            touched={
                "last_read": (
                    self._last_read,
                    [pid for _, pids in self._due for pid in pids],
                ),
                "cumulative": (self._cumulative, measurements),
            },
        )
        self._journal_stale = False
        self._journal_signals = signals

    def restart(self) -> None:
        """Simulate a crash-with-restart: wipe all volatile state.

        Without a journal only the algorithm core object survives in
        whatever state the crash left it; read baselines, the stop-set,
        and in-flight work are gone, and the next activation runs a
        reconciliation pass that rebuilds them from kernel truth —
        forgiving all fairness debt.  With a journal attached, the next
        activation instead replays the last valid snapshot
        (:meth:`_do_recover`); a corrupt or empty journal falls back to
        the lossy path.
        """
        self._phase = _Phase.RECONCILING
        self._due = []
        self._pending_signals = []
        self._last_read = {}
        self._stopped_pids = set()
        self._seen_exit_count = -1
        self._acc = CostAccumulator()
        self._deferred_cost_us = 0.0
        #: Downtime must not read as kernel starvation: the cadence-slip
        #: baseline restarts with the agent.
        self.policy.last_wake_us = -1
        self.restarts += 1
        self.last_restart_journaled = False
        self._recovered = None
        self._deferred_debt = {}
        self._journal_stale = True
        journal = self._journal
        if journal is None:
            return
        try:
            rec = journal.recover()
            if rec.snapshot is None:
                raise JournalCorruptError("journal holds no snapshot")
            self._recovered = dict(validate_snapshot(rec.snapshot))
        except JournalCorruptError:
            self.recovery_fallbacks += 1
            return
        self._phase = _Phase.RECOVERING
        self.last_restart_journaled = True

    def shutdown(self, kapi: "KernelAPI") -> int:
        """Resume every controlled process left stopped; returns the
        number resumed.

        Consults kernel truth, not just the agent's own stop-set, so a
        wedged subject (lost bookkeeping, delayed SIGSTOP) is released
        too — every pid of every member and shed subject found stopped.
        ``HostAlps._resume_all`` trusts kernel truth only for
        single-process members: on a real host a stopped member of a
        multi-process subject may be a user's own ``^Z``'d job, which is
        not the controller's to resume; in the simulator nothing but
        the agent stops a process.
        """
        to_resume = set(self._stopped_pids)
        subjects = list(self.subjects.values())
        subjects.extend(self.policy.shed.values())
        for subj in subjects:
            for pid in subj.pids(kapi):
                try:
                    if kapi.is_stopped(pid):
                        to_resume.add(pid)
                except NoSuchProcessError:
                    continue
        resumed = 0
        for pid in to_resume:
            try:
                kapi.kill(pid, SIGCONT)
                resumed += 1
            except NoSuchProcessError:
                pass
        self._stopped_pids = set()
        self._journal_stale = True
        return resumed

    # ------------------------------------------------------------------
    # Behavior protocol
    # ------------------------------------------------------------------
    def next_action(self, proc: "Process", kapi: "KernelAPI") -> Action:
        # Steady-state phases first (INIT/RECONCILING fire once each).
        phase = self._phase
        if phase is _Phase.SLEEPING:
            return self._do_wake(kapi)
        if phase is _Phase.MEASURING:
            return self._do_apply(kapi)
        if phase is _Phase.SIGNALING:
            return self._do_deliver(kapi)
        if phase is _Phase.INIT:
            return self._do_init(kapi)
        if phase is _Phase.RECONCILING:
            return self._do_reconcile(kapi)
        if phase is _Phase.RECOVERING:
            return self._do_recover(kapi)
        raise AssertionError(f"unknown phase {phase}")  # pragma: no cover

    # -- phase bodies ----------------------------------------------------
    def _do_init(self, kapi: "KernelAPI") -> Action:
        self._epoch = kapi.now
        # Duck-typed kapi surfaces (unit-test fakes, alternative hosts)
        # may not expose an observability handle; absence means None.
        self._obs = self.policy.obs = getattr(kapi, "observer", None)
        self.core._now_fn = lambda: kapi.now
        self._cumulative = {s: 0 for s in self.subjects}
        for subj in self.subjects.values():
            subj.refresh(kapi)
            for pid in subj.pids(kapi):
                self._set_baseline(kapi, pid)
        self._next_refresh = kapi.now + self.cfg.principal_refresh_us
        self._phase = _Phase.SLEEPING
        return self._sleep_until_boundary(kapi.now)

    def _do_wake(self, kapi: "KernelAPI") -> Action:
        """Timer fired: select who to measure and pay for the work."""
        now = kapi.now
        cost = self._cost_timer_us + self._deferred_cost_us
        self._deferred_cost_us = 0.0
        policy = self.policy
        if policy.guard is not None or policy.tree is not None:
            # Slip is *cadence* slip — the actual wake-to-wake gap minus
            # the intended period — because a deprioritised agent shows
            # up as servicing (Compute bursts) crawling between
            # boundaries, not as late timer delivery (wakeups carry a
            # priority boost).
            self._kapi = kapi
            resumed, readmitted, drained, gated = policy.wake(now)
            self._note_slip()
            if resumed:
                # The shed's signals are one subtotal, added once:
                # regrouping the float sum changes the charge's last
                # bits, which the accumulator's carry turns into a
                # different schedule.
                shed_cost = 0.0
                for _ in range(resumed):
                    shed_cost += self._cost_signal_us
                cost += shed_cost
            for npids in (readmitted, drained, gated):
                if npids:
                    self.reads += npids
                    cost += self.cfg.costs.measure_cost(npids)
        if now - self._sleep_target >= self._quantum_us:
            # At least one whole quantum overslept (the guard mirrors
            # _absorb_stall's own missed <= 0 early-out).
            cost += self._absorb_stall(kapi, now)
        if now >= self._next_refresh:
            cost += self._refresh_principals(kapi)
            self._next_refresh = now + self.cfg.principal_refresh_us
        self._reap_dead_subjects(kapi)
        due_sids = self.core.begin_quantum()
        self.invocations += 1
        self._wake_boundary = now
        due: list[tuple[int, list[int]]] = []
        subjects_get = self.subjects.get
        npids = 0
        for sid in due_sids:
            subj = subjects_get(sid)
            if subj is None:
                # The subject died after the core selected it (e.g. the
                # whole group is gone); measure nothing for it.
                continue
            pids = subj.pids(kapi)
            due.append((sid, pids))
            npids += len(pids)
        self._due = due
        if npids:
            cost += self._cost_measure_fixed + self._cost_measure_per * npids
            self.reads += npids
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.events.emit(
                now, "quantum.tick",
                count=self.core.count, due=len(due), pids=npids,
            )
            obs.spans.record("timer_event", self._cost_timer_us, start_us=now)
            if npids:
                obs.spans.record(
                    "measure",
                    self._cost_measure_fixed + self._cost_measure_per * npids,
                    start_us=now,
                )
        self._phase = _Phase.MEASURING
        return Compute(self._acc.charge(cost))

    def _do_apply(self, kapi: "KernelAPI") -> Action:
        """Measurement CPU spent: read progress now and run the algorithm.

        The reads are :func:`~repro.alps.measure.measure_due` over this
        kapi's one-read ``read_progress``; a dead pid is forgotten (the
        next wake's liveness sweep takes its subject out of the core).
        """
        now = kapi.now  # no events fire inside next_action: read once
        self.sampling_delays_us.append(now - self._wake_boundary)
        self._kapi = kapi  # what _retry_read reads through
        measurements, anomalies, suspects = measure_due(
            self._due,
            self.core,
            read=kapi.read_progress,
            retry=self._retry_read,
            dead=self._forget_dead,
            last_read=self._last_read,
            cumulative=self._cumulative,
            debt=self._deferred_debt,
            track_io=self.cfg.track_io,
        )
        self.anomalies += anomalies
        decisions = self.core.complete_quantum(measurements)
        if self.cfg.enforce_invariants:
            self.core.check_runtime_invariants()
        self._pending_signals = self._signals_for(kapi, decisions, suspects)
        obs = self._obs
        if obs is not None and obs.enabled:
            events = obs.events
            for sid in decisions.to_suspend:
                events.emit(now, "eligibility.stop", sid=sid)
            for sid in decisions.to_resume:
                events.emit(now, "eligibility.cont", sid=sid)
            if decisions.cycle_completed:
                rec = decisions.cycle_record
                events.emit(
                    now, "cycle.complete",
                    index=rec.index if rec is not None else -1,
                    consumed_us=rec.total_consumed if rec is not None else 0,
                )
            if self._pending_signals:
                obs.spans.record(
                    "signal",
                    self._cost_signal_us * len(self._pending_signals),
                    start_us=now,
                )
        journal = self._journal
        if journal is not None:
            # Write-ahead: the record is durable before the decisions
            # it encodes are enacted.  Appends charge no CPU and draw no
            # engine randomness, so journaling is schedule-invisible.
            self._journal_quantum(journal, now, measurements, decisions)
        if not self._pending_signals:
            self._phase = _Phase.SLEEPING
            return self._sleep_until_boundary(now)
        self._phase = _Phase.SIGNALING
        cost = self._cost_signal_us * len(self._pending_signals)
        return Compute(self._acc.charge(cost))

    def _do_deliver(self, kapi: "KernelAPI") -> Action:
        """Signal CPU spent: deliver the queued signals, verify, retry."""
        for pid, signo in self._pending_signals:
            self._deliver_signal(kapi, pid, signo)
        self._pending_signals = []
        self._phase = _Phase.SLEEPING
        return self._sleep_until_boundary(kapi.now)

    def _do_reconcile(self, kapi: "KernelAPI") -> Action:
        """First activation after a restart: rebuild state from kernel truth.

        Never trust state a crash may have invalidated: re-enumerate
        membership, re-baseline every progress read, and resume any
        controlled process found stopped (the algorithm re-suspends the
        truly ineligible on the next quantum — one quantum of lost
        proportions beats a subject wedged in SIGSTOP forever).
        """
        npids = 0
        resume: list[tuple[int, int]] = []
        for subj in self.subjects.values():
            subj.refresh(kapi)
            for pid in subj.pids(kapi):
                npids += 1
                self._set_baseline(kapi, pid)
                try:
                    stopped = kapi.is_stopped(pid)
                except NoSuchProcessError:
                    self._forget_pid(pid)
                    continue
                if stopped:
                    self._stopped_pids.add(pid)
                    resume.append((pid, SIGCONT))
        self._reap_dead_subjects(kapi)
        self._next_refresh = kapi.now + self.cfg.principal_refresh_us
        self._pending_signals = resume
        cost = self.cfg.costs.measure_cost(npids)
        self.reads += npids
        cost += self.cfg.costs.signal_us * len(resume)
        self._phase = _Phase.SIGNALING
        return Compute(self._acc.charge(cost))

    def _do_recover(self, kapi: "KernelAPI") -> Action:
        """First activation after a journaled restart: replay the snapshot.

        Restores the algorithm core (allowances, cycle position,
        eligibility partition, postponement indices) and — crucially —
        preserves the fairness debt: the CPU each subject consumed
        while the agent was down (current reading minus the journaled
        baseline) is scheduled for amortized repayment
        (:func:`~repro.resilience.journal.schedule_debt`) instead of
        being forgiven by a re-baseline.  Repayment is spread over
        subsequent measurements at each debtor's fair-share rate — a
        one-shot lump charge would destabilise the postponement
        optimization.  Kernel truth still wins where it disagrees: dead
        subjects are dropped, and any pid whose stopped-ness
        contradicts the restored eligibility partition gets a fix-up
        signal.  Any inconsistency in the payload degrades to the lossy
        reconciliation path rather than failing the agent.
        """
        payload = self._recovered
        self._recovered = None
        self._kapi = kapi  # what _retry_read reads through
        now = kapi.now
        obs = self._obs
        try:
            if payload is None:
                raise JournalCorruptError("recovery payload missing")
            state = restore_state(
                self.core, payload, ("last_read", "cumulative", "debt")
            )
        except JournalCorruptError:
            # Unusable payload: degrade to the PR 1 reconciliation pass.
            self.recovery_fallbacks += 1
            self.last_restart_journaled = False
            if obs is not None and obs.enabled:
                obs.events.emit(now, "agent.recovery_fallback")
            self._phase = _Phase.RECONCILING
            return self._do_reconcile(kapi)
        # The core snapshot predates any subject deaths the liveness
        # sweep noticed between snapshot and crash: self.subjects is
        # kernel-adjacent truth, so prune restored sids it lost.
        for sid in list(self.core.subjects):
            if sid not in self.subjects:
                self.core.remove_subject(sid)
        self._epoch = state.get("epoch", self._epoch)
        last_read = state["last_read"]
        cumulative = state["cumulative"]
        deferred = state["debt"]
        npids = 0
        stopped_now: set[int] = set()
        debts: dict[int, int] = {}
        pid_rows: list[tuple[int, int, bool]] = []
        for sid, subj in self.subjects.items():
            subj.refresh(kapi)
            debt = 0
            for pid in subj.pids(kapi):
                npids += 1
                try:
                    stopped = kapi.is_stopped(pid)
                except NoSuchProcessError:
                    last_read.pop(pid, None)
                    continue
                try:
                    usage = kapi.getrusage(pid)
                except NoSuchProcessError:
                    continue
                except TransientReadError:
                    try:
                        progress = self._retry_read(pid)
                    except NoSuchProcessError:
                        self._forget_pid(pid)
                        progress = None
                    usage = None if progress is None else progress[0]
                if usage is not None:
                    base = last_read.get(pid)
                    if base is not None and usage > base:
                        debt += usage - base
                    self._last_read[pid] = usage
                if stopped:
                    stopped_now.add(pid)
                pid_rows.append((sid, pid, stopped))
            if debt:
                debts[sid] = debt
        # Downtime consumption is repaid gradually, not as a lump (see
        # schedule_debt); the restored eligibility partition stands.
        scheduled_us = schedule_debt(self.core, debts, deferred)
        self._deferred_debt = deferred
        fixups: list[tuple[int, int]] = []
        core_subjects = self.core.subjects
        for sid, pid, stopped in pid_rows:
            st = core_subjects.get(sid)
            want_stopped = st is not None and not st.eligible
            if stopped != want_stopped:
                fixups.append((pid, SIGSTOP if want_stopped else SIGCONT))
        self._stopped_pids = stopped_now
        self._reap_dead_subjects(kapi)
        for sid in self.subjects:
            cumulative.setdefault(sid, 0)
        self._cumulative = cumulative
        self._next_refresh = now + self.cfg.principal_refresh_us
        self._pending_signals = fixups
        self.journal_recoveries += 1
        if obs is not None and obs.enabled:
            obs.events.emit(
                now, "agent.recovered",
                subjects=len(core_subjects), fixups=len(fixups),
                debt_us=scheduled_us,
            )
        # The stopped-ness checks walk every pid like a measurement pass,
        # and the fix-up signals are real kill(2) calls: charge both.
        cost = self.cfg.costs.measure_cost(npids)
        self.reads += npids
        cost += self.cfg.costs.signal_us * len(fixups)
        self._phase = _Phase.SIGNALING
        return Compute(self._acc.charge(cost))

    # -- helpers ----------------------------------------------------------
    def _until_next_boundary(self, now: int) -> int:
        q = self._quantum_us
        k = (now - self._epoch) // q + 1
        return self._epoch + k * q - now

    def _sleep_until_boundary(self, now: int) -> Sleep:
        duration = self._until_next_boundary(now)
        guard = self.policy.guard
        if guard is not None:
            # STRETCH and above: skip ahead extra boundaries so the
            # agent wakes every stretch × Q.  The epoch-aligned grid is
            # unchanged, so walking back down re-synchronises exactly.
            stretch = guard.stretch_factor
            if stretch > 1:
                duration += (stretch - 1) * self._quantum_us
            self.policy.cadence_us = stretch * self._quantum_us
        self._sleep_target = now + duration
        return Sleep(duration, "alpstimer")

    def _absorb_stall(self, kapi: "KernelAPI", now: int) -> float:
        """Detect missed quantum boundaries and re-baseline if needed.

        An agent that overslept N quanta (preemption storm, injected
        stall, paging) must not charge the whole outage as one quantum's
        consumption — that floods allowances and triggers a burst of
        catch-up suspensions.  Past ``stall_tolerance_quanta`` the read
        baselines are re-established at current values, forgiving the
        unobserved interval.  Returns the CPU cost of the extra reads.
        """
        q = self._quantum_us
        missed = (now - self._sleep_target) // q
        if missed <= 0:
            return 0.0
        self.missed_boundaries += missed
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.events.emit(now, "agent.stall", missed=missed)
        if missed <= self.cfg.stall_tolerance_quanta:
            return 0.0
        npids = 0
        for subj in self.subjects.values():
            for pid in subj.pids(kapi):
                npids += 1
                self._set_baseline(kapi, pid)
        self.rebaselines += 1
        self.reads += npids
        return self.cfg.costs.measure_cost(npids)

    def _deliver_signal(self, kapi: "KernelAPI", pid: int, signo: int) -> None:
        """Send one signal, verify its effect, re-send within budget."""
        want_stopped = signo == SIGSTOP
        for attempt in range(self.cfg.signal_retry_budget + 1):
            try:
                kapi.kill(pid, signo)
            except NoSuchProcessError:
                self._forget_pid(pid)
                return
            self.signals_sent += 1
            if attempt > 0:
                self.signal_retries += 1
                self._deferred_cost_us += self.cfg.costs.signal_us
            if want_stopped:
                self._stopped_pids.add(pid)
            else:
                self._stopped_pids.discard(pid)
            try:
                if kapi.is_stopped(pid) == want_stopped:
                    return
            except NoSuchProcessError:
                self._forget_pid(pid)
                return
        # Budget exhausted: bookkeeping above reflects the *intended*
        # state; a later measurement's wedge-healing or the next
        # eligibility transition gets another chance.

    def _signals_for(
        self,
        kapi: "KernelAPI",
        decisions: QuantumDecisions,
        suspects: list[tuple[int, int]],
    ) -> list[tuple[int, int]]:
        """SIGSTOP/SIGCONT per transition, plus wedge healing over the
        measurement's ``suspects`` (the due pids it read stopped or could
        not read) — the agent's own rule (docs/algorithm.md, "Two
        drivers, one fold")."""
        signals: list[tuple[int, int]] = []
        to_suspend = decisions.to_suspend
        suspend = set(to_suspend) if to_suspend else _EMPTY_SET
        for sid in decisions.to_suspend:
            subj = self.subjects.get(sid)
            if subj is None:
                continue
            for pid in subj.pids(kapi):
                if pid not in self._stopped_pids:
                    signals.append((pid, SIGSTOP))
        for sid in decisions.to_resume:
            subj = self.subjects.get(sid)
            if subj is None:
                continue
            for pid in subj.pids(kapi):
                if pid in self._stopped_pids:
                    signals.append((pid, SIGCONT))
        # Wedge healing: a subject measured this quantum that is (and
        # stays) eligible must not have stopped processes.  A pid found
        # stopped here lost a SIGCONT (or caught a delayed SIGSTOP); the
        # agent's bookkeeping can't be trusted, kernel state is.  Every
        # other due pid was read running (or dead) this very activation,
        # so only the suspects need a look.
        core_get = self.core.subjects.get
        eligible = Eligibility.ELIGIBLE
        for sid, pid in suspects:
            st = core_get(sid)
            if st is None or st.state is not eligible or sid in suspend:
                continue
            try:
                if kapi.is_stopped(pid):
                    signals.append((pid, SIGCONT))
                    self._stopped_pids.add(pid)  # make delivery resume it
                    self.heals += 1
            except NoSuchProcessError:
                self._forget_pid(pid)
        return signals

    def _refresh_principals(self, kapi: "KernelAPI") -> float:
        """Re-enumerate multi-process principals (Section 5).

        Newly discovered pids inherit the principal's current
        eligibility (a new worker of a suspended user is stopped at
        discovery).  Returns the CPU cost to charge, including the
        discovery-time signals — they are real kill(2) calls and must
        show up in the §4 overhead accounting like any other signal.
        """
        cost = 0.0
        discovery_stops: list[int] = []
        for _sid, joined, left, suspended in self.policy.refresh(kapi):
            cost += self.cfg.costs.principal_refresh_us
            for pid in joined:
                self._set_baseline(kapi, pid)
                if suspended:
                    discovery_stops.append(pid)
            for pid in left:
                self._forget_pid(pid)
        # Deliver discovery-time stops immediately (they are few), and
        # charge them: signals are never free.
        for pid in discovery_stops:
            try:
                kapi.kill(pid, SIGSTOP)
                self.signals_sent += 1
                self._stopped_pids.add(pid)
            except NoSuchProcessError:
                self._forget_pid(pid)
            cost += self.cfg.costs.signal_us
        return cost

    def _reap_dead_subjects(self, kapi: "KernelAPI") -> None:
        """Drop single-process subjects whose process exited.

        The dead subject leaves *all* agent maps — its core entry, its
        read baseline, and its stop-set entry — so long churny runs do
        not leak state (and a recycled pid can never inherit it).

        Runs every quantum, but the per-pid sweep is skipped outright
        when the kernel's global exit counter has not moved since the
        last sweep — no exit anywhere means no subject can have died.
        The counter read and ``pid_exists`` are free, fault-transparent
        inspections, so the skip is schedule-invisible.
        """
        exits = kapi.exit_count()
        if exits == self._seen_exit_count:
            return
        self._seen_exit_count = exits
        dead: Optional[list[ProcessSubject]] = None
        pid_exists = kapi.pid_exists
        for subj in self._proc_subjects:
            if pid_exists(subj.pid):
                continue  # pids are never recycled, so alive stays True
            subj._alive = False
            if dead is None:
                dead = []
            dead.append(subj)
        if dead is None:
            return
        for subj in dead:
            self._forget_pid(subj.pid)
        self.policy.depart([subj.sid for subj in dead])
        self._proc_subjects = [s for s in self._proc_subjects if s._alive]

    def _forget_pid(self, pid: int) -> None:
        """Remove every per-pid record (death or departure cleanup)."""
        self._last_read.pop(pid, None)
        self._stopped_pids.discard(pid)
        self._journal_stale = True

    def _forget_dead(self, sid: int, pid: int) -> None:
        """The measurement's death report: forget ``pid`` (the next
        wake's liveness sweep takes its subject out of the core)."""
        self._forget_pid(pid)

    def _retry_read(self, pid: int) -> Optional[tuple[int, bool, bool]]:
        """Continue a ``read_progress`` whose first attempt failed
        transiently, through the current activation's kapi.

        Performs up to ``read_retry_budget`` further attempts, charging
        each retry's CPU into the next quantum.  Raises
        :class:`NoSuchProcessError` when the pid turns out gone, and
        returns None when the budget is exhausted, leaving the baseline
        untouched so the next successful read charges the full elapsed
        consumption — a skipped measurement defers accounting, it never
        loses it.
        """
        read = self._kapi.read_progress
        for _ in range(self.cfg.read_retry_budget):
            self.read_retries += 1
            self._deferred_cost_us += self.cfg.costs.measure_per_proc_us
            try:
                return read(pid)
            except TransientReadError:
                continue
        self.read_failures += 1
        return None

    def _set_baseline(self, kapi: "KernelAPI", pid: int) -> None:
        """(Re)set a pid's progress baseline to its current reading.

        On a transient failure the stale baseline is dropped instead:
        the next successful read then starts a fresh interval (delta 0),
        which can only under-charge — safe for a recovery path.
        """
        self._journal_stale = True
        try:
            self._last_read[pid] = kapi.getrusage(pid)
        except NoSuchProcessError:
            self._forget_pid(pid)
        except TransientReadError:
            self._last_read.pop(pid, None)


def spawn_alps(
    kernel: "Kernel",
    subjects: Sequence[Subject],
    config: AlpsConfig,
    *,
    name: str = "alps",
    uid: int = 0,
    nice: int = 0,
    start_delay: int = 0,
    injector: Optional["FaultInjector"] = None,
    journal: Optional["MemoryJournal"] = None,
    supervisor=None,
    overload: Optional["OverloadGuard"] = None,
    sharetree: Optional["ShareTree"] = None,
) -> tuple["Process", AlpsAgent]:
    """Spawn an ALPS scheduler process in the simulated kernel.

    Returns the agent's process (for overhead accounting via
    ``proc.cpu_time``) and the agent object (for its cycle log).  When a
    :class:`~repro.faults.injector.FaultInjector` is supplied, the agent
    runs behind its behavior wrapper and sees the injector's faulty
    system-call surface.  A ``journal`` makes restarts crash-safe
    (:meth:`AlpsAgent.attach_journal`); a ``supervisor``
    (:class:`~repro.resilience.supervisor.Supervisor`) hosts the agent
    behind :class:`~repro.resilience.supervisor.SupervisedAlpsBehavior`,
    which subsumes the plain fault wrapper; an ``overload`` guard
    (:class:`~repro.overload.guard.OverloadGuard`) arms admission
    control, starvation detection and the degradation ladder
    (:meth:`AlpsAgent.attach_overload`); a ``sharetree``
    (:class:`~repro.sharetree.tree.ShareTree`) makes the tree the
    authority for every subject's share
    (:meth:`AlpsAgent.attach_sharetree`).
    """
    agent = AlpsAgent(subjects, config)
    if journal is not None:
        agent.attach_journal(journal)
    if overload is not None:
        agent.attach_overload(overload)
    if sharetree is not None:
        agent.attach_sharetree(sharetree)
    behavior: "Behavior" = agent
    if supervisor is not None:
        from repro.resilience.supervisor import SupervisedAlpsBehavior

        behavior = SupervisedAlpsBehavior(agent, supervisor, injector)
    elif injector is not None:
        from repro.faults.injector import FaultableAlpsBehavior

        behavior = FaultableAlpsBehavior(agent, injector)
    proc = kernel.spawn(name, behavior, uid=uid, nice=nice, start_delay=start_delay)
    return proc, agent
