"""The ALPS agent: a simulated *process* running the ALPS algorithm.

The agent is an ordinary unprivileged process in the simulated kernel,
and its body is one loop (:meth:`AlpsAgent._run`), a generator that
each ``next_action`` resumes: the timer fires; once scheduled, the
agent pays the Table 1 CPU for the timer event and the due subjects'
reads, runs one :class:`~repro.alps.step.QuantumStep` (measure, Figure
3, signal plan, journal record), pays for and sends the SIGSTOP/SIGCONT
transitions, and sleeps until the next quantum boundary.  Because it
competes for the CPU like everyone else, sampling jitter, overhead and
the §4.2 loss of control emerge from the simulation rather than being
asserted.

Robustness (docs/fault_model.md): signal delivery is verified and
re-sent within budget, oversleeping re-establishes the read baselines
instead of a burst of catch-up decisions, and :meth:`AlpsAgent.restart`
starts the loop over behind a recovery prelude that replays the journal
(docs/resilience.md) or, without a usable one, reconciles the stop-set
against kernel truth.  Faults, crashes and supervision come from the
one host around the agent,
:class:`~repro.resilience.supervisor.SupervisedAlpsBehavior`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.alps.algorithm import AlpsCore
from repro.alps.config import AlpsConfig
from repro.alps.costs import CostAccumulator
from repro.alps.instrumentation import CycleLog
from repro.alps.policy import AlpsPolicy
from repro.alps.step import QuantumStep
from repro.alps.subjects import ProcessSubject, Subject
from repro.errors import JournalCorruptError, NoSuchProcessError
from repro.kernel.actions import Action, Compute, Sleep
from repro.kernel.signals import SIGCONT, SIGSTOP

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.kernel.behaviors import Behavior
    from repro.kernel.kapi import KernelAPI
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.obs.observer import Observer
    from repro.overload.guard import OverloadGuard
    from repro.resilience.journal import MemoryJournal
    from repro.resilience.supervisor import Supervisor
    from repro.sharetree.tree import ShareTree


#: What the loop yields (an engine action) and is resumed with (the
#: activation's kapi).
_Loop = Generator[Action, "KernelAPI", None]


def _primed(loop: _Loop) -> _Loop:
    """Run ``loop`` to its first ``yield``, where it waits for a kapi."""
    next(loop)
    return loop


class AlpsAgent:
    """Behavior implementing one ALPS scheduler over a set of subjects."""

    def __init__(self, subjects: Sequence[Subject], config: AlpsConfig) -> None:
        if not subjects:
            raise ValueError("AlpsAgent requires at least one subject")
        self.cfg = config
        self.subjects: dict[int, Subject] = {s.sid: s for s in subjects}
        if len(self.subjects) != len(subjects):
            raise ValueError("subject ids must be unique")
        # Single-process subjects for the per-quantum liveness sweep (kept
        # by _admit, _release and _reap_dead_subjects).
        self._proc_subjects: list[ProcessSubject] = [
            s for s in self.subjects.values() if isinstance(s, ProcessSubject)
        ]
        self.core = AlpsCore(
            {s.sid: s.share for s in subjects},
            config.quantum_us,
            optimized=config.optimized,
        )
        #: The quantum body and per-pid state (:mod:`repro.alps.step`);
        #: its ``view`` is the kapi of the current entry point.
        self.step = QuantumStep(
            self.core,
            self.subjects,
            forget=self._forget_pid,
            track_io=config.track_io,
            read_retry_budget=config.read_retry_budget,
            heal_wedges=True,
            foreign_stops=False,
            dead_leaves_now=False,
            journal_pending=True,
        )
        self.step.epoch = 0
        #: Admission, degradation and share-tree policy
        #: (:mod:`repro.alps.policy`); ``subjects`` is its member map.
        self.policy = AlpsPolicy(
            self.core, self.subjects, self._admit, self._release, self._now
        )
        self._quantum_us = config.quantum_us
        #: Most recent wake's timer slip (µs); 0 without a guard (the
        #: supervised host's heartbeat reads it).
        self.timer_slip_us = 0
        #: Kernel exit counter at the last liveness sweep; -1 forces one.
        self._seen_exit_count = -1
        #: The boundary the agent intended to wake at (stall detection).
        self._sleep_target = 0
        #: CPU owed for retries, folded into the next quantum's charge.
        self._deferred_cost_us = 0.0
        # Timer events serviced, progress reads and signals (overhead).
        self.invocations = self.reads = self.signals_sent = 0
        #: Delay (µs) from each quantum boundary to its reads — the
        #: sampling-latency distribution whose growth is §4.2's breakdown.
        self.sampling_delays_us: list[int] = []
        # Robustness (docs/fault_model.md): boundaries slept through,
        # stall re-baselines, re-sent signals, crash-restarts.
        self.missed_boundaries = self.rebaselines = 0
        self.signal_retries = self.restarts = 0
        #: The kernel's observer (repro.obs), taken at first activation.
        self._obs: Optional["Observer"] = None
        # Restarts that replayed the journal, and that fell back to lossy
        # reconciliation; whether the last one replayed it.
        self.journal_recoveries = self.recovery_fallbacks = 0
        self.last_restart_journaled = False
        #: The agent's loop, waiting for its first activation.
        self._loop = _primed(self._run())

    # Read retries and failures, wedge heals, backwards counters.
    read_retries = property(lambda self: self.step.read_retries)
    read_failures = property(lambda self: self.step.read_failures)
    heals = property(lambda self: self.step.heals)
    anomalies = property(lambda self: self.step.anomalies)

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
        return self.step.cumulative.get(sid, 0) if sid in self.subjects else 0

    # ------------------------------------------------------------------
    # Optional layers: journal, overload guard, share tree (the policy
    # itself is repro.alps.policy).  Each is schedule-invisible while idle.
    # ------------------------------------------------------------------
    def attach_journal(self, journal: "MemoryJournal") -> None:
        """Attach a write-ahead journal (:mod:`repro.resilience.journal`):
        one record per quantum, replayed by :meth:`restart`.  The journal
        object models persistent storage and must survive the crash."""
        self.step.journal = journal

    def attach_overload(self, guard: "OverloadGuard") -> None:
        """Attach an overload guard (:mod:`repro.overload`): fed every
        wake's slip, its ladder sets the quantum stretch the agent
        sleeps by and the boost and shed decisions the policy enacts."""
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
        """Attach a share tree (:mod:`repro.sharetree`), the authority
        for every subject's share from now on; a flat-equivalent tree
        resolves to the raw weights and changes nothing."""
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
        """Offer an arrival to admission control (True iff it joined
        now; :meth:`~repro.alps.policy.AlpsPolicy.submit`)."""
        self.step.view = kapi
        return self.policy.submit(subject, path)

    def release_subject(self, sid: int, kapi: "KernelAPI") -> Subject:
        """Withdraw a subject (cell migration), its stopped pids resumed,
        for :meth:`adopt_subject` on the destination agent."""
        self.step.view = kapi
        subj = self.policy.release(sid)
        self.step.cumulative.pop(sid, None)
        return subj

    def adopt_subject(self, subject: Subject, kapi: "KernelAPI") -> bool:
        """Receive a migrating subject (already admitted in its old
        cell, so admission control is deliberately bypassed)."""
        self.step.view = kapi
        return self.policy.adopt(subject)

    # -- the policy's port (repro.alps.policy) ----------------------------
    def _admit(self, subject: Subject) -> int:
        """Baseline a joining subject's pids; 0 if it died first."""
        step = self.step
        subject.refresh(step.view)
        pids = subject.pids(step.view)
        if not pids:
            return 0
        if isinstance(subject, ProcessSubject):
            self._proc_subjects.append(subject)
        step.cumulative.setdefault(subject.sid, 0)
        for pid in pids:
            step.baseline(pid)
        return len(pids)

    def _release(self, sid: int) -> int:
        """Resume (at once) and forget a departing member's pids;
        returns how many stopped ones got a SIGCONT."""
        kapi = self.step.view
        subj = self.subjects[sid]
        if isinstance(subj, ProcessSubject):
            self._proc_subjects.remove(subj)
        resumed = 0
        for pid in subj.pids(kapi):
            if pid in self.step.stopped:
                resumed += 1
                try:
                    kapi.kill(pid, SIGCONT)
                    self.signals_sent += 1
                except NoSuchProcessError:
                    pass
            self._forget_pid(pid)
        return resumed

    def _now(self) -> int:
        return self.step.view.now

    # ------------------------------------------------------------------
    # Crash / shutdown recovery surface
    # ------------------------------------------------------------------
    def snapshot_state(self, now: int) -> dict:
        """JSON-safe snapshot of all state a restart must not lose."""
        return self.step.snapshot(now)

    def restart(self) -> Optional[dict]:
        """Simulate a crash-with-restart: wipe all volatile state and
        start the loop over behind a recovery prelude (:meth:`_rejoin`).
        Returns the journal's last valid snapshot, which the next
        activation replays; None when it reconciles against kernel truth
        instead, forgiving all fairness debt."""
        step = self.step
        step.last_read = {}
        step.stopped.clear()
        step.debt = {}
        step.journal_stale = True
        self._seen_exit_count = -1
        self._deferred_cost_us = 0.0
        #: Downtime must not read as kernel starvation: the cadence-slip
        #: baseline restarts with the agent.
        self.policy.last_wake_us = -1
        self.restarts += 1
        payload = None
        if step.journal is not None:
            from repro.resilience.journal import validate_snapshot

            try:
                rec = step.journal.recover()
                if rec.snapshot is None:
                    raise JournalCorruptError("journal holds no snapshot")
                payload = dict(validate_snapshot(rec.snapshot))
            except JournalCorruptError:
                self.recovery_fallbacks += 1
        self.last_restart_journaled = payload is not None
        self._loop = _primed(self._run(restarted=True, payload=payload))
        return payload

    def shutdown(self, kapi: "KernelAPI") -> int:
        """Resume every pid of every member and shed subject left
        stopped, by kernel truth (in the simulator nothing but the agent
        stops a process); returns the number resumed."""
        stopped = self.step.stopped
        to_resume = set(stopped)
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
        stopped.clear()
        self.step.journal_stale = True
        return resumed

    # ------------------------------------------------------------------
    # Behavior protocol: one loop, resumed per activation
    # ------------------------------------------------------------------
    def next_action(self, proc: "Process", kapi: "KernelAPI") -> Action:
        return self._loop.send(kapi)

    def _run(self, restarted: bool = False, payload: Optional[dict] = None) -> _Loop:
        """The agent's life: start (or a restart's recovery prelude),
        then every quantum wake → Compute (timer + reads), the quantum
        step → Compute (signals) or Sleep, deliver → Sleep.  Each
        ``yield`` hands the engine an action and receives the kapi of
        the activation that follows it."""
        kapi = yield  # primed: the first activation's kapi arrives here
        self._bind(kapi)
        step = self.step
        policy = self.policy
        obs = self._obs
        cfg = self.cfg
        costs = cfg.costs
        timer_us = costs.timer_event_us
        fixed_us = costs.measure_fixed_us
        per_us = costs.measure_per_proc_us
        signal_us = costs.signal_us
        refresh_us = cfg.principal_refresh_us
        charge = CostAccumulator().charge
        if restarted:
            npids, signals = self._rejoin(kapi, payload)
            next_refresh = kapi.now + refresh_us
            # The restart's walk over npids pids costs a measurement
            # pass, and its signals are real kill(2) calls.
            cost = costs.measure_cost(npids)
            self.reads += npids
            cost += signal_us * len(signals)
            kapi = yield Compute(charge(cost))
            for pid, stop in signals:
                self._deliver_signal(kapi, pid, stop)
        else:
            step.epoch = kapi.now
            step.cumulative = {s: 0 for s in self.subjects}
            for subj in self.subjects.values():
                subj.refresh(kapi)
            step.rebaseline()
            next_refresh = kapi.now + refresh_us
        while True:
            kapi = yield self._sleep_until_boundary(kapi.now)
            # The timer fired: select who to measure and pay for the work.
            now = wake = kapi.now
            step.view = kapi
            cost = timer_us + self._deferred_cost_us
            self._deferred_cost_us = 0.0
            if policy.guard is not None or policy.tree is not None:
                # Slip is *cadence* slip (wake-to-wake gap minus the
                # intended period): a deprioritised agent crawls between
                # boundaries, while its wakeups, priority-boosted, arrive
                # on time.
                resumed, readmitted, drained, gated = policy.wake(now)
                self._note_slip()
                if resumed:
                    # The shed's signals are one subtotal, added once:
                    # regrouping the float sum changes the charge's last
                    # bits, which the accumulator's carry turns into a
                    # different schedule.
                    shed_cost = 0.0
                    for _ in range(resumed):
                        shed_cost += signal_us
                    cost += shed_cost
                for npids in (readmitted, drained, gated):
                    if npids:
                        self.reads += npids
                        cost += costs.measure_cost(npids)
            if now - self._sleep_target >= self._quantum_us:
                # At least one whole quantum overslept (the guard mirrors
                # _absorb_stall's own missed <= 0 early-out).
                cost += self._absorb_stall(now)
            if now >= next_refresh:
                cost += self._refresh_principals(kapi)
                next_refresh = now + refresh_us
            self._reap_dead_subjects(kapi)
            due, npids = step.due()
            self.invocations += 1
            if npids:
                cost += fixed_us + per_us * npids
                self.reads += npids
            if obs is not None and obs.enabled:
                obs.events.emit(
                    now, "quantum.tick",
                    count=self.core.count, due=len(due), pids=npids,
                )
                obs.spans.record("timer_event", timer_us, start_us=now)
                if npids:
                    obs.spans.record(
                        "measure", fixed_us + per_us * npids, start_us=now
                    )
            kapi = yield Compute(charge(cost))
            # Measurement CPU spent: run the quantum step now (a dead pid
            # is forgotten; the next wake's liveness sweep takes its
            # subject out of the core) and pay for its signals.
            now = kapi.now  # no events fire inside next_action: read once
            self.sampling_delays_us.append(now - wake)
            step.view = kapi
            retries = step.read_retries
            decisions, signals = step.quantum(due, now)
            if step.read_retries != retries:
                self._charge_retries(retries)
            if cfg.enforce_invariants:
                self.core.check_runtime_invariants()
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
                if signals:
                    obs.spans.record(
                        "signal", signal_us * len(signals), start_us=now
                    )
            if signals:
                kapi = yield Compute(charge(signal_us * len(signals)))
                # Signal CPU spent: deliver, verify, retry.
                for pid, stop in signals:
                    self._deliver_signal(kapi, pid, stop)

    def _bind(self, kapi: "KernelAPI") -> None:
        """Bind the process view, the core's clock and the observer; the
        loop's first activation runs this, whether it starts or
        restarts."""
        self.step.view = kapi
        # Duck-typed kapi surfaces (unit-test fakes, alternative hosts)
        # may not expose an observability handle; absence means None.
        self._obs = self.policy.obs = getattr(kapi, "observer", None)
        self.core._now_fn = lambda: kapi.now

    def _rejoin(
        self, kapi: "KernelAPI", payload: Optional[dict]
    ) -> tuple[int, list[tuple[int, bool]]]:
        """A restart's first activation; returns the pids it walked and
        the signals to send.  With a journaled ``payload``: the step's
        restore and rejoin (the outage's CPU becomes amortized debt;
        fix-up signals where kernel truth contradicts the restored
        partition).  Without one, or if it proves unusable, reconcile:
        re-enumerate, re-baseline every read, and resume every
        controlled process found stopped — the next quantum re-suspends
        the truly ineligible, and one quantum of lost proportions beats
        a subject wedged forever."""
        step = self.step
        obs = self._obs
        if payload is not None:
            try:
                state = step.restore(payload)
            except JournalCorruptError:
                self.recovery_fallbacks += 1
                self.last_restart_journaled = False
                if obs is not None and obs.enabled:
                    obs.events.emit(kapi.now, "agent.recovery_fallback")
            else:
                # The core snapshot predates any subject deaths the
                # liveness sweep noticed between snapshot and crash:
                # self.subjects is kernel-adjacent truth, so prune
                # restored sids it lost.
                for sid in list(self.core.subjects):
                    if sid not in self.subjects:
                        self.core.remove_subject(sid)
                step.epoch = state.get("epoch", step.epoch)
                for subj in self.subjects.values():
                    subj.refresh(kapi)
                retries = step.read_retries
                fixups, scheduled_us, npids = step.rejoin(state)
                self._charge_retries(retries)
                self._reap_dead_subjects(kapi)
                for sid in self.subjects:
                    step.cumulative.setdefault(sid, 0)
                self.journal_recoveries += 1
                if obs is not None and obs.enabled:
                    obs.events.emit(
                        kapi.now, "agent.recovered",
                        subjects=len(self.core.subjects), fixups=len(fixups),
                        debt_us=scheduled_us,
                    )
                return npids, fixups
        npids = 0
        resume: list[tuple[int, bool]] = []
        for subj in self.subjects.values():
            subj.refresh(kapi)
            for pid in subj.pids(kapi):
                npids += 1
                step.baseline(pid)
                try:
                    stopped = kapi.is_stopped(pid)
                except NoSuchProcessError:
                    self._forget_pid(pid)
                    continue
                if stopped:
                    step.stopped.add(pid)
                    resume.append((pid, False))
        self._reap_dead_subjects(kapi)
        return npids, resume

    # -- helpers ----------------------------------------------------------
    def _charge_retries(self, before: int) -> None:
        """Owe the next quantum one read's CPU per retry since ``before``."""
        per_us = self.cfg.costs.measure_per_proc_us
        for _ in range(self.step.read_retries - before):
            self._deferred_cost_us += per_us

    def _sleep_until_boundary(self, now: int) -> Sleep:
        q = self._quantum_us
        epoch = self.step.epoch
        duration = epoch + ((now - epoch) // q + 1) * q - now
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

    def _absorb_stall(self, now: int) -> float:
        """Count missed quantum boundaries; past
        ``stall_tolerance_quanta`` re-baseline every read, forgiving the
        unobserved interval rather than charging it as one quantum (a
        flood of catch-up suspensions).  Returns the reads' CPU cost."""
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
        npids = self.step.rebaseline()
        self.rebaselines += 1
        self.reads += npids
        return self.cfg.costs.measure_cost(npids)

    def _deliver_signal(self, kapi: "KernelAPI", pid: int, stop: bool) -> None:
        """Send one signal, verify its effect, re-send within budget."""
        signo = SIGSTOP if stop else SIGCONT
        stopped = self.step.stopped
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
            if stop:
                stopped.add(pid)
            else:
                stopped.discard(pid)
            try:
                if kapi.is_stopped(pid) == stop:
                    return
            except NoSuchProcessError:
                self._forget_pid(pid)
                return
        # Budget spent: the stop-set holds the *intended* state; wedge
        # healing or the next transition gets another chance.

    def _refresh_principals(self, kapi: "KernelAPI") -> float:
        """Re-enumerate multi-process principals (Section 5); a pid
        found in a suspended one is stopped at discovery.  Returns the
        CPU to charge, the discovery signals' included."""
        step = self.step
        step.view = kapi
        changes = self.policy.refresh(kapi)
        cost = 0.0
        for _ in changes:
            cost += self.cfg.costs.principal_refresh_us
        stops, leavers = step.refresh(changes)
        for pid in leavers:
            self._forget_pid(pid)
        for pid in stops:
            try:
                kapi.kill(pid, SIGSTOP)
                self.signals_sent += 1
                step.stopped.add(pid)
            except NoSuchProcessError:
                self._forget_pid(pid)
            cost += self.cfg.costs.signal_us
        return cost

    def _reap_dead_subjects(self, kapi: "KernelAPI") -> None:
        """Drop single-process subjects whose process exited, from every
        map.  Skipped while the kernel's exit counter stands still (the
        counter and ``pid_exists`` are free, fault-transparent reads)."""
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
        step = self.step
        step.last_read.pop(pid, None)
        step.stopped.discard(pid)
        step.journal_stale = True


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
    supervisor: Optional["Supervisor"] = None,
    overload: Optional["OverloadGuard"] = None,
    sharetree: Optional["ShareTree"] = None,
) -> tuple["Process", AlpsAgent]:
    """Spawn an ALPS scheduler process in the simulated kernel; returns
    its process (``proc.cpu_time`` is the overhead) and the agent.

    ``journal``, ``overload`` and ``sharetree`` are attached
    (:meth:`AlpsAgent.attach_journal` and its siblings).  An
    ``injector`` (its faulty system-call surface, stalls and agent
    crashes) or a ``supervisor`` (heartbeats, backoff restarts,
    stand-down) puts the agent behind the one supervised host,
    :class:`~repro.resilience.supervisor.SupervisedAlpsBehavior`;
    with neither, the kernel runs the bare agent.
    """
    agent = AlpsAgent(subjects, config)
    if journal is not None:
        agent.attach_journal(journal)
    if overload is not None:
        agent.attach_overload(overload)
    if sharetree is not None:
        agent.attach_sharetree(sharetree)
    behavior: "Behavior" = agent
    if supervisor is not None or injector is not None:
        from repro.resilience.supervisor import SupervisedAlpsBehavior

        behavior = SupervisedAlpsBehavior(agent, supervisor, injector)
    proc = kernel.spawn(name, behavior, uid=uid, nice=nice, start_delay=start_delay)
    return proc, agent
