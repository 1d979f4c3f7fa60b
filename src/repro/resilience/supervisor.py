"""Supervision of ALPS drivers: heartbeats, backoff restarts, stand-down.

The journal (:mod:`repro.resilience.journal`) makes a restarted agent
*correct*; the supervisor makes restarting *safe*.  It is a small
policy state machine shared by both drivers:

* **heartbeats** — every serviced activation beats; a gap wider than
  ``heartbeat_timeout_quanta`` quanta is recorded and reported;
* **bounded exponential backoff with seeded jitter** — each crash
  delays the restart by a growing, capped backoff so a crash-looping
  agent cannot hammer the system with reconciliation work; a seeded
  random jitter fraction decorrelates restarts of co-scheduled agents
  (no thundering herd after a shared outage) while staying fully
  deterministic under the campaign seed;
* **restart-budget escalation** — past ``restart_budget`` crashes the
  supervisor raises :class:`~repro.errors.RestartBudgetExhausted`; the
  caller must then *resume every controlled process and stand down*
  (degraded mode): losing proportional shares for the rest of the run
  beats leaving host processes wedged in SIGSTOP.

Every transition is emitted as a ``supervisor.*`` event on the attached
:class:`repro.obs.Observer`, so chaos invariants can audit liveness and
escalation from the event log alone.

:class:`SupervisedAlpsBehavior` is the one host of a simulated agent:
the fault injector's kapi proxy and stalls, the crash source (the
injector's agent crashes or a plane cell's), restarts, and — with a
supervisor — backoff, heartbeats and stand-down.
:class:`SupervisedHostAlps` wraps the live Linux controller in a
recover/run/backoff loop around a :class:`FileJournal`.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import RestartBudgetExhausted, SchedulerConfigError
from repro.kernel.actions import Action, Sleep
from repro.units import MSEC, SEC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alps.agent import AlpsAgent
    from repro.faults.injector import FaultInjector, FaultyKernelAPI
    from repro.hostos.controller import HostAlps, HostAlpsReport
    from repro.kernel.kapi import KernelAPI
    from repro.kernel.process import Process
    from repro.obs.observer import Observer
    from repro.resilience.journal import FileJournal

#: How long a stood-down simulated agent sleeps between (inert) wakes.
STAND_DOWN_SLEEP_US = 3600 * SEC


@dataclass(slots=True, frozen=True)
class RestartPolicy:
    """Supervision tunables (see module docstring)."""

    #: Backoff added to the first restart's downtime.
    initial_backoff_us: int = 10 * MSEC
    #: Multiplier applied per successive restart.
    backoff_multiplier: float = 2.0
    #: Backoff ceiling.
    max_backoff_us: int = 2 * SEC
    #: Fraction of the granted backoff added as seeded uniform jitter
    #: (0 disables).  Applied on top of the (possibly capped) base, so
    #: restarts stay decorrelated even once the cap is reached; the
    #: deterministic base escalation itself is never jittered.
    backoff_jitter: float = 0.1
    #: Restarts allowed before the supervisor escalates to stand-down.
    restart_budget: int = 5
    #: Heartbeat gap (in quanta) past which a missed-heartbeat event is
    #: recorded.
    heartbeat_timeout_quanta: int = 8

    def __post_init__(self) -> None:
        if self.initial_backoff_us < 0:
            raise SchedulerConfigError("initial_backoff_us must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise SchedulerConfigError("backoff_multiplier must be >= 1")
        if self.max_backoff_us < self.initial_backoff_us:
            raise SchedulerConfigError(
                "max_backoff_us must be >= initial_backoff_us"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise SchedulerConfigError(
                "backoff_jitter must be in [0, 1]"
            )
        if self.restart_budget < 0:
            raise SchedulerConfigError("restart_budget must be >= 0")
        if self.heartbeat_timeout_quanta < 1:
            raise SchedulerConfigError("heartbeat_timeout_quanta must be >= 1")


class SupervisorState(enum.Enum):
    """Lifecycle of the supervised driver."""

    RUNNING = "running"
    RESTARTING = "restarting"
    DEGRADED = "degraded"


#: Read on every supervised agent action: an enum member lookup costs
#: ten times a module global's.
_DEGRADED = SupervisorState.DEGRADED


@dataclass(slots=True, frozen=True)
class RestartDecision:
    """What the supervisor granted for one failure."""

    attempt: int
    backoff_us: int


class Supervisor:
    """Policy state machine supervising one ALPS driver.

    Pure bookkeeping: it never touches processes itself.  The hosting
    wrapper calls :meth:`heartbeat` on every driver activation and
    :meth:`on_failure` on every crash, and enacts what comes back.
    """

    def __init__(
        self,
        policy: RestartPolicy = RestartPolicy(),
        *,
        quantum_us: int = 10 * MSEC,
        observer: Optional["Observer"] = None,
        label: str = "alps",
        seed: int = 0,
    ) -> None:
        if quantum_us <= 0:
            raise SchedulerConfigError("quantum_us must be positive")
        self.policy = policy
        self.quantum_us = quantum_us
        self.label = label
        self.seed = seed
        self.state = SupervisorState.RUNNING
        self.restarts = 0
        self.heartbeats = 0
        self.missed_heartbeats = 0
        self.stood_down_at: Optional[int] = None
        self._backoff_us = policy.initial_backoff_us
        self._last_beat: Optional[int] = None
        self._heartbeat_limit_us = policy.heartbeat_timeout_quanta * quantum_us
        self._obs = observer
        self._jitter_rng = None

    # -- observability -------------------------------------------------
    def bind_observer(self, observer: Optional["Observer"]) -> None:
        """Late-bind the observability handle (sim wrappers pick it up
        from the kernel on first activation)."""
        if observer is not None and self._obs is None:
            self._obs = observer

    def _emit(self, now: int, kind: str, **fields) -> None:
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.events.emit(now, kind, label=self.label, **fields)

    def _jitter_us(self, base_us: int) -> int:
        """Seeded uniform jitter in ``[0, jitter · base_us]``.

        The stream mixes the seed with the supervisor label, so two
        supervisors sharing a campaign seed still draw independently —
        that independence is the whole anti-herd point.
        """
        frac = self.policy.backoff_jitter
        if frac <= 0.0 or base_us <= 0:
            return 0
        if self._jitter_rng is None:
            from repro.sim.rng import RngStreams

            self._jitter_rng = RngStreams(self.seed).stream(
                f"supervisor.backoff:{self.label}"
            )
        return int(base_us * frac * self._jitter_rng.random())

    # -- the policy surface --------------------------------------------
    def heartbeat(self, now: int, slip_us: int = 0) -> None:
        """Record one driver activation; report oversized gaps.

        ``slip_us`` is the driver's own starvation estimate for this
        wake (the overload layer's cadence slip,
        :attr:`~repro.alps.agent.AlpsAgent.timer_slip_us`).  The monitor
        judges the worse of the wall gap and the reported slip, so a
        starved wake registers as supervisor pressure even when restarts
        have reset the wall-gap baseline under it.
        """
        self.heartbeats += 1
        last = self._last_beat
        self._last_beat = now
        if last is None:
            return
        gap = now - last
        if slip_us > gap:
            gap = slip_us
        if gap > self._heartbeat_limit_us:
            self.missed_heartbeats += 1
            self._emit(
                now, "supervisor.heartbeat_missed", gap_us=gap, slip_us=slip_us
            )

    def on_failure(self, now: int) -> RestartDecision:
        """Grant a backoff restart, or raise once the budget is gone.

        Raises :class:`~repro.errors.RestartBudgetExhausted` when this
        failure exceeds ``restart_budget``; the caller must resume all
        controlled processes and stand the driver down.
        """
        if self.restarts >= self.policy.restart_budget:
            self.state = SupervisorState.DEGRADED
            self.stood_down_at = now
            self._emit(
                now,
                "supervisor.degraded",
                restarts=self.restarts,
                budget=self.policy.restart_budget,
            )
            raise RestartBudgetExhausted(self.restarts, self.policy.restart_budget)
        self.restarts += 1
        backoff = self._backoff_us + self._jitter_us(self._backoff_us)
        self._backoff_us = min(
            int(self._backoff_us * self.policy.backoff_multiplier),
            self.policy.max_backoff_us,
        )
        self.state = SupervisorState.RESTARTING
        self._emit(
            now,
            "supervisor.restart",
            attempt=self.restarts,
            backoff_us=backoff,
        )
        return RestartDecision(attempt=self.restarts, backoff_us=backoff)

    def on_recovered(self, now: int, *, journaled: bool) -> None:
        """The restarted driver is back in service."""
        self.state = SupervisorState.RUNNING
        self._last_beat = now
        self._emit(now, "supervisor.recovered", journaled=journaled)

    def stand_down(self, now: int, *, resumed: int) -> None:
        """Record the degraded-mode entry after the caller resumed all."""
        self.state = SupervisorState.DEGRADED
        if self.stood_down_at is None:
            self.stood_down_at = now
        self._emit(now, "supervisor.stand_down", resumed=resumed)

    @property
    def degraded(self) -> bool:
        """True once the supervisor has stood the driver down."""
        return self.state is SupervisorState.DEGRADED


class SupervisedAlpsBehavior:
    """The one host of a simulated agent: faults, crashes, supervision.

    Every activation runs, in this order: the crash check, the
    supervisor's heartbeat, the agent's own action, and the stall draw
    on an ``alpstimer`` sleep.

    * An ``injector`` puts the agent behind its faulty system-call
      surface (wrapped at the first activation); when its plan can
      perturb the agent, its stalls stretch the agent's timer sleeps
      and its agent crashes are the crash source.
    * ``crash_due(now)`` is the crash source otherwise (a plane cell's
      :meth:`~repro.sharetree.resilience.PlaneResilience.crash_due`).
    * A crash restarts the agent (:meth:`~repro.alps.agent.AlpsAgent.restart`)
      and sleeps out the crash's downtime.  With a ``supervisor`` the
      restart adds its backoff while the budget lasts; past the budget
      the host resumes everything the agent stopped, stands down, and
      reports it through ``on_dead(now, resumed=...)``.  A granted
      restart is reported through ``on_restarted(now)``.

    Without a crash source, stalls or system-call faults the host only
    monitors: it delegates verbatim, so supervision alone is
    schedule-invisible (the differential tests pin this).
    """

    __slots__ = (
        "agent", "supervisor", "injector", "crash_due", "on_restarted",
        "on_dead", "_kapi", "_stalls",
    )

    def __init__(
        self,
        agent: "AlpsAgent",
        supervisor: Optional[Supervisor] = None,
        injector: Optional["FaultInjector"] = None,
        *,
        crash_due: Optional[Callable[[int], Any]] = None,
        on_restarted: Optional[Callable[[int], None]] = None,
        on_dead: Optional[Callable[..., None]] = None,
    ) -> None:
        self.agent = agent
        self.supervisor = supervisor
        self.injector = injector
        self._stalls: Optional[Callable[[int], int]] = None
        if injector is not None and injector.perturbs_agent():
            crash_due = injector.agent_crash_due
            self._stalls = injector.stall_quanta
        self.crash_due = crash_due
        self.on_restarted = on_restarted
        self.on_dead = on_dead
        self._kapi: "KernelAPI | FaultyKernelAPI | None" = None

    def next_action(self, proc: "Process", kapi: "KernelAPI") -> Action:
        # Runs on every agent action: no property of its own to read and
        # no keyword call.
        if self._kapi is None:
            self._bind(kapi)
        sup = self.supervisor
        if sup is not None and sup.state is _DEGRADED:
            return Sleep(STAND_DOWN_SLEEP_US, channel="alpsdown")
        now = kapi.now
        agent = self.agent
        if self.crash_due is not None:
            crash = self.crash_due(now)
            if crash is not None:
                return self._crash(now, crash.downtime_us, kapi)
        if sup is not None:
            sup.heartbeat(now, agent.timer_slip_us)
        action = agent.next_action(proc, self._kapi)
        if (
            self._stalls is not None
            and type(action) is Sleep
            and action.channel == "alpstimer"
        ):
            extra = self._stalls(now)
            if extra:
                action = Sleep(
                    action.duration_us + extra * agent.cfg.quantum_us,
                    channel=action.channel,
                )
        return action

    def _bind(self, kapi: "KernelAPI") -> None:
        """First activation: late-bind the supervisor's observer and the
        agent's view of the kernel."""
        if self.supervisor is not None:
            self.supervisor.bind_observer(getattr(kapi, "observer", None))
        injector = self.injector
        self._kapi = kapi if injector is None else injector.wrap(kapi)

    def _crash(self, now: int, downtime_us: int, kapi: "KernelAPI") -> Action:
        """Restart the crashed agent, or stand it down past the budget."""
        agent = self.agent
        sup = self.supervisor
        if sup is not None:
            try:
                downtime_us += sup.on_failure(now).backoff_us
            except RestartBudgetExhausted:
                # Escalation: release everything and stand down.  The
                # host acts through the raw kernel surface — it is a
                # separate, simpler entity than the agent whose system
                # calls the plan perturbs.
                resumed = agent.shutdown(kapi)
                sup.stand_down(now, resumed=resumed)
                if self.on_dead is not None:
                    self.on_dead(now, resumed=resumed)
                return Sleep(STAND_DOWN_SLEEP_US, channel="alpsdown")
        agent.restart()
        if sup is not None:
            sup.on_recovered(
                now + downtime_us, journaled=agent.last_restart_journaled
            )
        if self.on_restarted is not None:
            self.on_restarted(now)
        return Sleep(downtime_us, channel="alpsrestart")


class SupervisedHostAlps:
    """Run the live Linux controller under supervision and journaling.

    Wraps ``HostAlps.run`` in a recover/run/backoff loop: a controller
    crash (any exception out of :meth:`HostAlps.run`) is healed by
    constructing a fresh controller, replaying the journal so fairness
    debt survives, sleeping the supervisor's backoff, and continuing
    for the remaining duration.  Once the restart budget is exhausted
    the last controller's ``_resume_all`` has already released every
    process; the wrapper stands down and reports what it has.
    """

    def __init__(
        self,
        shares,
        *,
        journal: "FileJournal",
        policy: RestartPolicy = RestartPolicy(),
        quantum_s: float = 0.05,
        observer: Optional["Observer"] = None,
        host_factory: Optional[Callable[[], "HostAlps"]] = None,
        sleep_fn: Callable[[float], None] = time.sleep,
        now_us: Callable[[], int] = lambda: int(time.monotonic() * 1_000_000),
        **host_kwargs,
    ) -> None:
        from repro.hostos.controller import HostAlps

        self.shares = dict(shares)
        self.journal = journal
        self.quantum_s = quantum_s
        self.observer = observer
        self._sleep = sleep_fn
        self._now_us = now_us
        self._host_kwargs = host_kwargs
        self.supervisor = Supervisor(
            policy,
            quantum_us=max(1, int(quantum_s * 1_000_000)),
            observer=observer,
            label="hostalps",
        )
        self._factory = host_factory or (
            lambda: HostAlps(
                self.shares,
                quantum_s=self.quantum_s,
                journal=self.journal,
                observer=self.observer,
                **self._host_kwargs,
            )
        )
        #: Journaled recoveries actually performed.
        self.recoveries = 0

    def run(self, duration_s: float) -> "HostAlpsReport":
        """Control for ``duration_s`` wall seconds, surviving crashes."""
        deadline = self._now_us() + int(duration_s * 1_000_000)
        report = None
        sup = self.supervisor
        while True:
            remaining = (deadline - self._now_us()) / 1_000_000
            if remaining <= 0:
                break
            controller = self._factory()
            if controller.restore_from_journal():
                self.recoveries += 1
                sup.on_recovered(self._now_us(), journaled=True)
            try:
                report = controller.run(remaining)
                break
            except KeyboardInterrupt:
                raise
            except Exception:
                try:
                    decision = sup.on_failure(self._now_us())
                except RestartBudgetExhausted:
                    # HostAlps.run's finally already ran _resume_all.
                    sup.stand_down(self._now_us(), resumed=0)
                    break
                self._sleep(decision.backoff_us / 1_000_000)
        if report is None:
            from repro.alps.instrumentation import CycleLog
            from repro.hostos.controller import HostAlpsReport

            report = HostAlpsReport(
                duration_s=duration_s,
                cycles=0,
                cycle_log=CycleLog(),
                consumed_us={},
                consumed_by_sid={},
                controller_cpu_us=0,
            )
        return report


__all__ = [
    "RestartDecision",
    "RestartPolicy",
    "STAND_DOWN_SLEEP_US",
    "SupervisedAlpsBehavior",
    "SupervisedHostAlps",
    "Supervisor",
    "SupervisorState",
]
