"""Deterministic fault injection against the simulated kernel.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into runtime misbehavior along three seams:

* **engine events** — scheduled/Poisson process crashes and fork storms
  are materialised at :meth:`arm` time and fired by the event loop;
* **the system-call surface** — :meth:`wrap` returns a
  :class:`FaultyKernelAPI` that transparently drops/delays signals and
  fails accounting reads with the plan's probabilities;
* **the agent's own execution** — the agent's one host,
  :class:`~repro.resilience.supervisor.SupervisedAlpsBehavior`, draws
  :meth:`~FaultInjector.stall_quanta` to stretch the agent's sleeps past
  quantum boundaries (stalls) and :meth:`~FaultInjector.agent_crash_due`
  to crash-and-restart it.

Every injected fault is appended to :attr:`FaultInjector.trace`;
:meth:`trace_lines` renders it as a stable text form so tests can assert
byte-identical replay for equal seeds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import NoSuchProcessError, TransientReadError
from repro.faults.plan import AgentCrash, FaultPlan, FaultRecord
from repro.kernel.signals import SIGKILL, signal_name
from repro.sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alps.agent import AlpsAgent
    from repro.kernel.behaviors import Behavior
    from repro.kernel.kapi import KernelAPI
    from repro.kernel.kernel import Kernel
    from repro.resilience.journal import WriteFaults
    from repro.sim.engine import Engine


class FaultInjector:
    """Runtime state of one fault plan over one simulation."""

    def __init__(
        self,
        plan: FaultPlan,
        engine: "Engine",
        kernel: "Kernel",
        *,
        behavior_factory: Optional[Callable[[], "Behavior"]] = None,
    ) -> None:
        self.plan = plan
        self.engine = engine
        self.kernel = kernel
        self._behavior_factory = behavior_factory
        self.rng = RngStreams(plan.seed)
        self.trace: list[FaultRecord] = []
        self._armed = False
        self._victims: list[int] = []
        # Agent-targeted overload faults (docs/overload.md), armed by
        # arm_agent() once the agent exists.
        self._agent_armed = False
        self._agent: Optional["AlpsAgent"] = None
        self._alps_pid: Optional[int] = None
        self._kapi: Optional["KernelAPI"] = None
        #: Next sid handed to a storm arrival; far above any workload's
        #: own sids so storm subjects can never collide.
        self._next_storm_sid = 1_000_000
        # Agent-fault schedules, consumed in time order by the wrapper.
        self._stalls = sorted(plan.agent_stalls, key=lambda s: s.time_us)
        self._agent_crashes = sorted(plan.agent_crashes, key=lambda c: c.time_us)
        # Counters (exported by the robustness experiment).
        self.crashes_injected = 0
        self.forks_spawned = 0
        self.signals_dropped = 0
        self.signals_delayed = 0
        self.reads_failed = 0
        self.stalls_injected = 0
        self.agent_crashes_injected = 0
        self.journal_writes_lost = 0
        self.journal_writes_torn = 0
        self.storm_arrivals = 0
        self.nice_bombs_injected = 0

    # ------------------------------------------------------------------
    # Trace
    # ------------------------------------------------------------------
    def record(self, kind: str, detail: str) -> None:
        """Append one fault occurrence to the replay trace.

        Mirrored into the attached observer's event log (kind
        ``fault.<kind>``) when the engine carries one, so exported
        JSONL streams interleave injected misbehavior with the
        scheduler's own events.
        """
        self.trace.append(FaultRecord(self.engine.now, kind, detail))
        obs = self.engine.observer
        if obs is not None and obs.enabled:
            obs.events.emit(self.engine.now, "fault." + kind, detail=detail)

    def trace_lines(self) -> list[str]:
        """Stable textual trace (equal seeds must replay it verbatim)."""
        return [rec.line() for rec in self.trace]

    # ------------------------------------------------------------------
    # Arming: materialise the time-triggered schedule
    # ------------------------------------------------------------------
    def arm(self, victim_pids: list[int]) -> None:
        """Schedule the plan's time-triggered faults.

        ``victim_pids`` are the controlled worker pids, in spawn order;
        crash victim indexes resolve against this list, so the mapping
        is stable across runs.
        """
        if self._armed:
            raise RuntimeError("FaultInjector.arm() called twice")
        self._armed = True
        self._victims = list(victim_pids)
        crash_times: list[tuple[int, int]] = [
            (c.time_us, c.victim_index) for c in self.plan.crashes
        ]
        if self.plan.crash_rate_per_sec > 0 and self._victims:
            stream = self.rng.stream("crash")
            t = 0.0
            scale = 1_000_000 / self.plan.crash_rate_per_sec
            while True:
                t += float(stream.exponential(scale))
                if t >= self.plan.horizon_us:
                    break
                victim = int(stream.integers(0, len(self._victims)))
                crash_times.append((int(t), victim))
        for when, victim_index in sorted(crash_times):
            self.engine.at(
                max(when, self.engine.now),
                self._fire_crash,
                payload=victim_index,
                tag="fault:crash",
            )
        for storm in self.plan.fork_storms:
            self.engine.at(
                max(storm.time_us, self.engine.now),
                self._fire_fork_storm,
                payload=storm,
                tag="fault:forkstorm",
            )

    def arm_agent(self, agent: "AlpsAgent", alps_pid: int) -> None:
        """Schedule the agent-targeted overload faults.

        Arrival storms need the agent's admission surface
        (:meth:`~repro.alps.agent.AlpsAgent.submit_subject`) and nice
        bombs need the agent's pid, so this is a second arming step run
        after the agent is spawned (``build_controlled_workload`` wires
        it).  A plan with neither fault kind schedules nothing.
        """
        if self._agent_armed:
            raise RuntimeError("FaultInjector.arm_agent() called twice")
        self._agent_armed = True
        self._agent = agent
        self._alps_pid = alps_pid
        for storm in self.plan.arrival_storms:
            self.engine.at(
                max(storm.time_us, self.engine.now),
                self._fire_arrival_storm,
                payload=storm,
                tag="fault:arrivalstorm",
            )
        for bomb in self.plan.agent_nice_bombs:
            self.engine.at(
                max(bomb.time_us, self.engine.now),
                self._fire_nice_bomb,
                payload=bomb,
                tag="fault:nicebomb",
            )

    def _fire_arrival_storm(self, event) -> None:
        from repro.alps.subjects import ProcessSubject

        storm = event.payload
        agent = self._agent
        if agent is None:  # pragma: no cover - armed without an agent
            return
        if self._kapi is None:
            from repro.kernel.kapi import KernelAPI

            self._kapi = KernelAPI(self.kernel)
        if self._behavior_factory is None:
            from repro.workloads.spinner import spinner_behavior

            factory: Callable[[], "Behavior"] = spinner_behavior
        else:
            factory = self._behavior_factory
        admitted = 0
        pids: list[int] = []
        for i in range(storm.count):
            sid = self._next_storm_sid
            self._next_storm_sid += 1
            proc = self.kernel.spawn(
                f"arr-u{storm.uid}-{sid}", factory(), uid=storm.uid
            )
            pids.append(proc.pid)
            subject = ProcessSubject(sid=sid, share=storm.share, pid=proc.pid)
            if agent.submit_subject(subject, self._kapi):
                admitted += 1
        if storm.lifetime_us > 0:
            self.engine.after(
                storm.lifetime_us,
                self._fire_storm_reap,
                payload=tuple(pids),
                tag="fault:stormreap",
            )
        self.storm_arrivals += storm.count
        self.record(
            "arrival-storm",
            f"uid={storm.uid} count={storm.count} admitted={admitted}",
        )

    def _fire_storm_reap(self, event) -> None:
        """End of a storm's lifetime: kill its processes so the load
        clears and recovery has something to recover *to*."""
        reaped = 0
        for pid in event.payload:
            try:
                self.kernel.kill(pid, SIGKILL)
            except NoSuchProcessError:
                continue
            reaped += 1
        self.record("storm-reap", f"count={reaped}")

    def _fire_nice_bomb(self, event) -> None:
        bomb = event.payload
        pid = self._alps_pid
        if pid is None:  # pragma: no cover - armed without an agent
            return
        try:
            old = self.kernel.renice(pid, bomb.nice)
        except NoSuchProcessError:
            self.record("nice-bomb-noop", f"pid={pid}")
            return
        self.nice_bombs_injected += 1
        self.record(
            "nice-bomb",
            f"pid={pid} nice={bomb.nice} duration_us={bomb.duration_us}",
        )
        self.engine.after(
            bomb.duration_us,
            self._fire_nice_restore,
            payload=(pid, old),
            tag="fault:nicerestore",
        )

    def _fire_nice_restore(self, event) -> None:
        pid, old = event.payload
        try:
            self.kernel.renice(pid, old)
        except NoSuchProcessError:
            return
        self.record("nice-restore", f"pid={pid} nice={old}")

    def _fire_crash(self, event) -> None:
        if not self._victims:
            return
        pid = self._victims[event.payload % len(self._victims)]
        try:
            self.kernel.kill(pid, SIGKILL)
        except NoSuchProcessError:
            self.record("crash-noop", f"pid={pid}")
            return
        self.crashes_injected += 1
        self.record("crash", f"pid={pid}")

    def _fire_fork_storm(self, event) -> None:
        storm = event.payload
        if self._behavior_factory is None:
            from repro.workloads.spinner import spinner_behavior

            factory: Callable[[], "Behavior"] = spinner_behavior
        else:
            factory = self._behavior_factory
        for i in range(storm.count):
            self.kernel.spawn(
                f"storm-u{storm.uid}-{i}", factory(), uid=storm.uid
            )
        self.forks_spawned += storm.count
        self.record("forkstorm", f"uid={storm.uid} count={storm.count}")

    # ------------------------------------------------------------------
    # Per-operation faults (called by FaultyKernelAPI)
    # ------------------------------------------------------------------
    def fault_getrusage(self, kapi: "KernelAPI", pid: int) -> int:
        self._fail_read(pid)
        return kapi.getrusage(pid)

    def fault_read_progress(
        self, kapi: "KernelAPI", pid: int
    ) -> tuple[int, bool, bool]:
        """:meth:`fault_getrusage` for the one-read progress triple: the
        same draw, so either read advances the ``read`` stream alike."""
        self._fail_read(pid)
        return kapi.read_progress(pid)

    def _fail_read(self, pid: int) -> None:
        """Draw whether this accounting read fails; raise if it does."""
        plan = self.plan
        if plan.rusage_fail_prob > 0 and (
            float(self.rng.stream("read").random()) < plan.rusage_fail_prob
        ):
            self.reads_failed += 1
            self.record("read-fail", f"pid={pid}")
            raise TransientReadError(pid)

    def fault_kill(self, kapi: "KernelAPI", pid: int, signo: int) -> None:
        plan = self.plan
        if plan.signal_drop_prob > 0 or plan.signal_delay_prob > 0:
            draw = float(self.rng.stream("signal").random())
            if draw < plan.signal_drop_prob:
                self.signals_dropped += 1
                self.record("signal-drop", f"pid={pid} sig={signal_name(signo)}")
                return
            if draw < plan.signal_drop_prob + plan.signal_delay_prob:
                self.signals_delayed += 1
                self.record("signal-delay", f"pid={pid} sig={signal_name(signo)}")
                self.engine.after(
                    plan.signal_delay_us,
                    self._fire_delayed_signal,
                    payload=(pid, signo),
                    tag="fault:sigdelay",
                )
                return
        kapi.kill(pid, signo)

    def _fire_delayed_signal(self, event) -> None:
        pid, signo = event.payload
        try:
            self.kernel.kill(pid, signo)
        except NoSuchProcessError:
            pass

    # ------------------------------------------------------------------
    # Agent faults (drawn by the agent's host, SupervisedAlpsBehavior)
    # ------------------------------------------------------------------
    def stall_quanta(self, now: int) -> int:
        """Quanta the agent must oversleep right now (0 = no stall)."""
        total = 0
        while self._stalls and self._stalls[0].time_us <= now:
            stall = self._stalls.pop(0)
            total += stall.skipped_quanta
            self.stalls_injected += 1
            self.record("stall", f"quanta={stall.skipped_quanta}")
        if self.plan.agent_stall_prob > 0 and (
            float(self.rng.stream("stall").random()) < self.plan.agent_stall_prob
        ):
            total += self.plan.agent_stall_quanta
            self.stalls_injected += 1
            self.record("stall", f"quanta={self.plan.agent_stall_quanta}")
        return total

    def perturbs_agent(self) -> bool:
        """Whether the plan can stall or crash the agent: if not,
        :meth:`stall_quanta` and :meth:`agent_crash_due` never act."""
        plan = self.plan
        return bool(
            plan.agent_stalls or plan.agent_stall_prob > 0 or plan.agent_crashes
        )

    def agent_crash_due(self, now: int) -> Optional[AgentCrash]:
        """The agent crash scheduled at or before ``now``, if any."""
        if self._agent_crashes and self._agent_crashes[0].time_us <= now:
            crash = self._agent_crashes.pop(0)
            self.agent_crashes_injected += 1
            self.record("agent-crash", f"downtime_us={crash.downtime_us}")
            return crash
        return None

    # ------------------------------------------------------------------
    # Journal-persistence faults (repro.resilience.journal fault hook)
    # ------------------------------------------------------------------
    def journal_fault_hook(self) -> Optional["WriteFaults"]:
        """The journal write-fault hook for this plan, or None.

        None when the plan can neither lose nor tear a write, so a
        journal without write faults carries no hook at all.  The hook
        draws from the dedicated ``journal`` RNG stream, so enabling
        journal faults cannot shift the schedule of any other fault
        kind, and it records every lost or torn append in the trace.
        Pass it as :class:`~repro.resilience.journal.MemoryJournal`'s
        ``fault_hook``.
        """
        from repro.resilience.journal import WriteFaults

        return WriteFaults.for_plan(
            self.plan, self.rng, "journal", self._note_journal_fault
        )

    def _note_journal_fault(self, kept: Optional[int], size: int) -> None:
        if kept is None:
            self.journal_writes_lost += 1
            self.record("journal-drop", f"bytes={size}")
        else:
            self.journal_writes_torn += 1
            self.record("journal-torn", f"kept={kept} of={size}")

    # ------------------------------------------------------------------
    # KernelAPI wrapping
    # ------------------------------------------------------------------
    def wrap(self, kapi: "KernelAPI") -> "KernelAPI | FaultyKernelAPI":
        """A KernelAPI view of ``kapi`` with this plan's faults applied:
        ``kapi`` itself when the plan can neither fail a read nor drop
        or delay a signal."""
        plan = self.plan
        if (
            plan.rusage_fail_prob > 0
            or plan.signal_drop_prob > 0
            or plan.signal_delay_prob > 0
        ):
            return FaultyKernelAPI(kapi, self)
        return kapi


class FaultyKernelAPI:
    """KernelAPI-compatible proxy that injects signal/read faults.

    Only the operations the plan can perturb are intercepted; everything
    else delegates verbatim, so a plan without system-call faults would
    be an exact pass-through — :meth:`FaultInjector.wrap` then hands out
    the raw KernelAPI instead.
    """

    __slots__ = ("_inner", "_injector")

    def __init__(self, inner: "KernelAPI", injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector

    @property
    def now(self) -> int:
        return self._inner.now

    @property
    def observer(self):
        return self._inner.observer

    def getrusage(self, pid: int) -> int:
        return self._injector.fault_getrusage(self._inner, pid)

    def read_progress(self, pid: int) -> tuple[int, bool, bool]:
        return self._injector.fault_read_progress(self._inner, pid)

    def kill(self, pid: int, signo: int) -> None:
        self._injector.fault_kill(self._inner, pid, signo)

    def wait_channel_of(self, pid: int):
        return self._inner.wait_channel_of(pid)

    def is_blocked(self, pid: int) -> bool:
        return self._inner.is_blocked(pid)

    def is_stopped(self, pid: int) -> bool:
        return self._inner.is_stopped(pid)

    def spawn(self, name, behavior, *, uid=0, nice=0, start_delay=0):
        return self._inner.spawn(
            name, behavior, uid=uid, nice=nice, start_delay=start_delay
        )

    def pids_of_uid(self, uid: int) -> list[int]:
        return self._inner.pids_of_uid(uid)

    def pid_exists(self, pid: int) -> bool:
        return self._inner.pid_exists(pid)

    def exit_count(self) -> int:
        return self._inner.exit_count()

    def wakeup(self, channel: str) -> int:
        return self._inner.wakeup(channel)

    def wakeup_one(self, channel: str) -> bool:
        return self._inner.wakeup_one(channel)


__all__ = ["FaultInjector", "FaultyKernelAPI"]
