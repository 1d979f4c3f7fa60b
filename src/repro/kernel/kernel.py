"""The simulated kernel: dispatch, preemption, sleep/wakeup, signals.

Single-CPU, event-driven model of a 4.4BSD/FreeBSD-4.x kernel.  The
scheduler machinery consists of three periodic activities plus
event-driven rescheduling:

* ``schedclock`` (every 40 ms): materialise the running process's CPU
  charge, recompute its priority, preempt if a better process waits.
* ``roundrobin`` (every 100 ms): rotate among processes whose priorities
  fall in the same run-queue bucket.
* ``schedcpu`` (every 1 s): decay every process's ``estcpu`` with the
  load-dependent filter, age sleepers' ``slptime``, update the load
  average.
* ``wakeup``/``SIGCONT``: a newly-runnable process preempts the current
  one if its priority is strictly better.

Design notes
------------
CPU charging is *analytic*: rather than simulating statclock ticks, the
kernel charges ``ran_us / tick_us`` of estcpu whenever a run interval is
materialised (burst completion, preemption, schedclock).  This is
equivalent at the granularity that matters and keeps the event count
low — the "compute less" optimization the HPC guides start from.

Rescheduling triggered from inside an event handler (e.g. a behavior
sending SIGCONT, making a high-priority process runnable) is deferred to
the end of the handler via a dispatch-depth guard, so kernel state is
always consistent when a context switch is performed.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Optional

import numpy as np

from repro.errors import (
    InvalidProcessStateError,
    KernelError,
    NoSuchProcessError,
)
from repro.kernel.behaviors import Behavior
from repro.kernel.actions import Action, Compute, Exit, Sleep, SleepOn
from repro.kernel.kapi import KernelAPI
from repro.kernel.kconfig import DEFAULT_CONFIG, KernelConfig
from repro.kernel.loadavg import LoadAverage
from repro.kernel.priorities import (
    batched_decay,
    batched_user_priority,
    charge_estcpu,
    decay_estcpu,
    decay_factor,
    user_priority,
    wakeup_decay,
)
from repro.kernel.process import NO_VALUE, Process, ProcState
from repro.kernel.runqueue import RunQueue
from repro.kernel.signals import SIGCONT, SIGKILL, SIGSTOP, signal_name
from repro.sim.engine import Engine

# Event priorities (lower fires first at equal times).
_EVPRI_START = 0
_EVPRI_BURST = 1
_EVPRI_SLEEP = 2
_EVPRI_HOUSEKEEPING = 3

# Safety bound on consecutive zero-length actions from one behavior.
_MAX_IMMEDIATE_ACTIONS = 64


class Kernel:
    """A single-CPU simulated UNIX kernel scheduling :class:`Process` es."""

    def __init__(
        self,
        engine: Engine,
        config: KernelConfig = DEFAULT_CONFIG,
    ) -> None:
        self.engine = engine
        #: Direct clock reference: ``self._clock._now`` is the hot-path
        #: spelling of ``self.now`` (two property hops fewer).
        self._clock = engine.clock
        self.cfg = config
        self.procs: dict[int, Process] = {}
        # -- process-table columns, indexed by ``Process.slot`` ----------
        # ``array``/``bytearray`` buffers: scalar paths index them at
        # native speed, ``schedcpu`` wraps them in zero-copy numpy views
        # for the length of one pass.  They grow in place at spawn, which
        # Python refuses while a view is alive — no view may outlive the
        # pass that took it.
        #: ``estcpu``, the authoritative copy (``Process.estcpu`` is a
        #: property over it).
        self._estcpu = array("d")
        #: Mirror of ``Process.nice``, written at spawn and ``renice``.
        self._nice = array("q")
        #: ``priority`` and ``boost_priority`` (``NO_VALUE`` = no boost
        #: pending), authoritative like ``estcpu``.
        self._priority = array("q")
        self._boost = array("q")
        #: 1 for a process the per-second decay applies to directly:
        #: alive and not parked (``park_epoch is None``).
        self._scheduled = bytearray()
        #: slot -> PCB, in spawn order (the order of ``procs``).
        self._table: list[Process] = []
        self.runq = RunQueue()
        #: Per-CPU running process (None = idle).  The paper's testbed
        #: is a uniprocessor (ncpus=1, the default); SMP is an
        #: extension for studying ALPS beyond the paper's setting.
        self.cpus: list[Optional[Process]] = [None] * config.ncpus
        self.loadavg = LoadAverage(config)
        self.kapi = KernelAPI(self)
        self._next_pid = 1
        self._channels: dict[str, list[Process]] = {}
        self._on_runq: set[int] = set()
        self._dispatch_depth = 0
        self._resched_pending = False
        self.total_busy_us = 0
        self.context_switches = 0
        #: Total processes that have exited since boot (monotone).  The
        #: moral equivalent of a sysctl/procfs global accounting counter:
        #: user-level schedulers poll it to skip liveness sweeps when no
        #: process can possibly have died since the last look.
        self.exit_count = 0
        self._exit_hooks: list[Callable[[Process], None]] = []
        #: Optional observability handle (repro.obs).  ``None`` keeps
        #: every instrumentation point at one attribute read, the same
        #: off-path discipline as the engine's tracer short-circuit.
        self._obs = None
        # -- fast-path state (see docs/performance.md) -----------------
        #: Lazy estcpu decay for sleepers (4.4BSD ``updatepri`` style).
        #: ``config.strict`` re-enables the original eager per-second
        #: loop; subclasses with their own aging (CFS) opt out too.
        self._lazy = not config.strict
        #: Number of completed ``schedcpu`` passes.
        self._schedcpu_epoch = 0
        #: Load average used at each pass (``[k-1]`` = load at pass k),
        #: so deferred first-pass decay replays the exact eager inputs.
        self._load_history: list[float] = []
        #: Count of occupied CPUs (O(1) ``runnable_count``).
        self._oncpu = 0
        # Hoisted config scalars for the inlined charge/priority math.
        self._tick_us = config.tick_us
        self._estcpu_limit = config.estcpu_limit
        self._puser = config.puser
        self._estcpu_weight = config.estcpu_weight
        self._nice_weight = config.nice_weight
        self._maxpri = config.maxpri
        self._ctx_switch_us = config.ctx_switch_us
        self._callout_res_us = config.callout_resolution_us
        #: Direct queue insertion for kernel-internal events whose times
        #: are provably >= now (burst completions, sleep timeouts) — the
        #: past-scheduling guard in ``Engine.at`` can never fire for
        #: them, so it is skipped.
        self._equeue_schedule = engine.queue.schedule
        # Perf counters (cheap ints; snapshotted by repro.perf).
        self.perf_schedcpu_passes = 0
        self.perf_schedcpu_idle_skips = 0
        self.perf_lazy_materializations = 0
        self._start_housekeeping()

    # ------------------------------------------------------------------
    # Public API (mirrored by KernelAPI)
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual time (µs)."""
        return self.engine.now

    @property
    def current(self) -> Optional[Process]:
        """The process on CPU 0 (uniprocessor convenience accessor)."""
        return self.cpus[0]

    def running_processes(self) -> list[Process]:
        """Processes currently on a CPU."""
        return [p for p in self.cpus if p is not None]

    def spawn(
        self,
        name: str,
        behavior: Behavior,
        *,
        uid: int = 0,
        nice: int = 0,
        start_delay: int = 0,
    ) -> Process:
        """Create a process; its behavior's first action fires after
        ``start_delay`` µs."""
        pid = self._next_pid
        self._next_pid += 1
        table = self._table
        proc = Process(
            pid=pid,
            name=name,
            uid=uid,
            nice=nice,
            behavior=behavior,
            slot=len(table),
            estcpu_column=self._estcpu,
            priority_column=self._priority,
            boost_column=self._boost,
        )
        table.append(proc)
        self._estcpu.append(0.0)
        self._nice.append(nice)
        self._scheduled.append(1)
        self._priority.append(user_priority(self.cfg, 0.0, nice))
        self._boost.append(NO_VALUE)
        proc.state = ProcState.SLEEPING  # embryonic until started
        proc.wait_channel = "fork"
        proc.tag_burst = f"burst:{name}"
        proc.tag_wake = f"wake:{name}"
        self.procs[pid] = proc
        self._park(proc)
        self.engine.after(
            start_delay,
            self._on_start,
            priority=_EVPRI_START,
            payload=proc,
            tag=f"start:{name}",
        )
        return proc

    def lookup(self, pid: int) -> Process:
        """Return the live process with ``pid`` (raises if absent/zombie)."""
        proc = self.procs.get(pid)
        if proc is None or proc.state is ProcState.ZOMBIE:
            raise NoSuchProcessError(pid)
        return proc

    def getrusage(self, pid: int) -> int:
        """Total CPU time consumed by ``pid`` in µs, including any
        in-flight run interval (like reading kernel accounting live)."""
        proc = self.procs.get(pid)
        if proc is None or proc.state is ProcState.ZOMBIE:
            raise NoSuchProcessError(pid)
        cpu = proc.cpu_time
        if proc.state is ProcState.RUNNING:
            now = self._clock._now
            if now > proc.run_start:
                cpu += now - proc.run_start
        return cpu

    def wait_channel_of(self, pid: int) -> Optional[str]:
        """The wait channel of ``pid`` (None unless sleeping) — the
        kvm-style introspection ALPS uses to detect blocked processes."""
        proc = self.procs.get(pid)
        if proc is None or proc.state is ProcState.ZOMBIE:
            raise NoSuchProcessError(pid)
        if proc.state is ProcState.SLEEPING:
            return proc.wait_channel
        return None

    def is_stopped(self, pid: int) -> bool:
        """True if ``pid`` is job-control stopped (the ``T`` state a
        ``ps``/kvm scan would report)."""
        proc = self.procs.get(pid)
        if proc is None or proc.state is ProcState.ZOMBIE:
            raise NoSuchProcessError(pid)
        return proc.stopped

    def pids_of_uid(self, uid: int) -> list[int]:
        """All live pids owned by ``uid`` (kvm_getprocs equivalent)."""
        return [
            p.pid
            for p in self.procs.values()
            if p.uid == uid and p.state is not ProcState.ZOMBIE
        ]

    def live_processes(self) -> Iterable[Process]:
        """Iterate over all live processes."""
        return (p for p in self.procs.values() if p.state is not ProcState.ZOMBIE)

    def add_exit_hook(self, hook: Callable[[Process], None]) -> None:
        """Register a callback invoked whenever a process exits."""
        self._exit_hooks.append(hook)

    def kill(self, pid: int, signo: int) -> None:
        """Deliver a signal.  Only SIGSTOP/SIGCONT/SIGKILL are modelled."""
        proc = self.procs.get(pid)  # inlined lookup() — hot via the agent
        if proc is None or proc.state is ProcState.ZOMBIE:
            raise NoSuchProcessError(pid)
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.events.emit(
                self._clock._now, "signal.sent",
                pid=pid, signo=signal_name(signo),
            )
        if signo == SIGSTOP:
            self._do_stop(proc)
        elif signo == SIGCONT:
            self._do_cont(proc)
        elif signo == SIGKILL:
            self._do_exit(proc, status=-SIGKILL)
        else:
            raise KernelError(f"unsupported signal {signal_name(signo)}")

    def renice(self, pid: int, nice: int) -> int:
        """setpriority(2): change a live process's nice value.

        Returns the previous nice.  The priority is recomputed from the
        current estcpu immediately — a running process first materialises
        its in-flight consumption, and a runnable one is requeued at its
        new priority so the change takes effect at the next dispatch,
        not at the next charge.  This is a privileged kernel-side
        operation (deliberately absent from :class:`KernelAPI`): the
        fault injector uses it to model an administrator nice-bombing
        the agent (docs/fault_model.md).
        """
        proc = self.procs.get(pid)
        if proc is None or proc.state is ProcState.ZOMBIE:
            raise NoSuchProcessError(pid)
        old = proc.nice
        if nice == old:
            return old
        if proc.state is ProcState.RUNNING:
            self._charge_proc(proc)
        # A parked process's deferred first-pass decay ran, in the eager
        # kernel, with the nice it had then: replay it before the change.
        self._materialize_slptime(proc)
        slot = proc.slot
        proc.nice = nice
        self._nice[slot] = nice
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.events.emit(
                self._clock._now, "kernel.renice", pid=pid, nice=nice
            )
        on_runq = pid in self._on_runq
        if on_runq:
            self.runq.remove(proc)
            self._on_runq.discard(pid)
        # Inlined user_priority (see _charge_proc).
        pri = (
            self._puser
            + self._estcpu[slot] / self._estcpu_weight
            + self._nice_weight * nice
        )
        if pri < 0:
            pri = 0
        elif pri > self._maxpri:
            pri = self._maxpri
        else:
            pri = int(pri)
        # A pending wakeup boost outlives the change, as in
        # _setrunnable (4.4BSD resetpriority rewrites p_usrpri only).
        boost = self._boost[slot]
        if boost != NO_VALUE and boost < pri:
            pri = boost
        self._priority[slot] = pri
        if on_runq:
            self.runq.insert(proc)
            self._on_runq.add(pid)
        self._request_resched()
        return old

    def wakeup(self, channel: str) -> int:
        """Wake every process sleeping on ``channel``; returns the count."""
        sleepers = self._channels.pop(channel, [])
        for proc in sleepers:
            if proc.sleep_handle is not None:
                proc.sleep_handle.cancel()
                proc.sleep_handle = None
            self._finish_sleep(proc)
        self._request_resched()
        return len(sleepers)

    def wakeup_one(self, channel: str) -> bool:
        """Wake the longest-waiting sleeper on ``channel`` (wakeup_one).

        Returns True if someone was woken.  Used by producer/consumer
        handoffs (e.g. a connection arriving at an accept queue) to
        avoid thundering herds.
        """
        sleepers = self._channels.get(channel)
        if not sleepers:
            return False
        proc = sleepers.pop(0)
        if not sleepers:
            self._channels.pop(channel, None)
        if proc.sleep_handle is not None:
            proc.sleep_handle.cancel()
            proc.sleep_handle = None
        self._finish_sleep(proc)
        self._request_resched()
        return True

    def runnable_count(self) -> int:
        """Instantaneous count of runnable + running processes."""
        return len(self.runq) + self._oncpu

    def slptime_of(self, pid: int) -> int:
        """Seconds ``pid`` has spent sleeping/stopped, materialising any
        lazily-deferred accrual first (the value the eager path would
        hold right now)."""
        proc = self.procs.get(pid)
        if proc is None:
            raise NoSuchProcessError(pid)
        self._materialize_slptime(proc)
        return proc.slptime

    def flush_lazy_decay(self) -> None:
        """Materialise deferred slptime/decay for every parked process.

        Idempotent and schedule-invisible: after this call the full
        per-process scheduler state (estcpu, slptime, priority) matches
        what the strict/eager path would hold at this instant.  Used by
        the equivalence tests and state-dump tooling.
        """
        for proc in self.procs.values():
            self._materialize_slptime(proc)

    def attach_observer(self, observer) -> None:
        """Attach a :class:`repro.obs.Observer` to kernel + syscall layer.

        Observation is read-only: events record context switches and
        delivered signals, but nothing about dispatch changes, so an
        attached observer is schedule-invisible (pinned by
        tests/obs/test_observer_differential.py).
        """
        self._obs = observer

    def perf_snapshot(self) -> dict[str, int]:
        """Cheap scheduler-internal perf counters (see repro.perf)."""
        return {
            "kernel.schedcpu_passes": self.perf_schedcpu_passes,
            "kernel.schedcpu_idle_skips": self.perf_schedcpu_idle_skips,
            "kernel.lazy_materializations": self.perf_lazy_materializations,
            "kernel.context_switches": self.context_switches,
        }

    # ------------------------------------------------------------------
    # Lazy slptime/decay bookkeeping (fast path)
    # ------------------------------------------------------------------
    # A process that is sleeping or stopped ("parked") cannot influence
    # scheduling until it next becomes runnable, so the eager per-second
    # work on it — slptime aging plus the single first-pass decay that
    # 4.4BSD's schedcpu applies before updatepri takes over — is
    # deferred and replayed, with the recorded pass-time load, the
    # moment the process re-enters the scheduled world.
    def _park(self, proc: Process) -> None:
        if self._lazy and proc.park_epoch is None:
            proc.park_epoch = self._schedcpu_epoch
            self._scheduled[proc.slot] = 0

    def _materialize_slptime(self, proc: Process) -> None:
        epoch = proc.park_epoch
        if epoch is None:
            return
        elapsed = self._schedcpu_epoch - epoch
        if elapsed <= 0:
            return
        if proc.slptime == 0:
            # Replay the one eager decay applied at the first pass after
            # parking (pass epoch+1, whose load is _load_history[epoch]).
            slot = proc.slot
            est = self._estcpu[slot]
            new_est = decay_estcpu(
                self.cfg, est, proc.nice, self._load_history[epoch]
            )
            if new_est != est:
                self._estcpu[slot] = new_est
                new_pri = user_priority(self.cfg, new_est, proc.nice)
                boost = self._boost[slot]
                if boost != NO_VALUE and boost < new_pri:
                    new_pri = boost
                self._priority[slot] = new_pri  # parked, so not queued
        proc.slptime += elapsed
        proc.park_epoch = self._schedcpu_epoch
        self.perf_lazy_materializations += 1

    def _unpark(self, proc: Process) -> None:
        if proc.park_epoch is not None:
            self._materialize_slptime(proc)
            proc.park_epoch = None
            self._scheduled[proc.slot] = 1

    # ------------------------------------------------------------------
    # Process start / trampoline
    # ------------------------------------------------------------------
    def _on_start(self, event) -> None:
        proc: Process = event.payload
        if proc.state is ProcState.ZOMBIE:
            return
        proc.wait_channel = None
        proc.state = ProcState.RUNNABLE
        self._advance_guarded(proc, False)

    def _advance(self, proc: Process, on_cpu: bool) -> None:
        """Ask the behavior for actions until one takes time.

        ``on_cpu`` is True when ``proc`` just completed a burst while
        running; a follow-on Compute then continues without a context
        switch.
        """
        for _ in range(_MAX_IMMEDIATE_ACTIONS):
            action: Action = proc.behavior.next_action(proc, self.kapi)
            if proc.state is ProcState.ZOMBIE:
                return  # behavior side effect killed the process
            if isinstance(action, Compute):
                if action.duration_us == 0:
                    continue
                proc.pending_burst_us = action.duration_us
                if on_cpu:
                    self._schedule_burst(proc, restart=True)
                else:
                    self._setrunnable(proc)
                return
            if isinstance(action, (Sleep, SleepOn)):
                timeout = action.duration_us if isinstance(action, Sleep) else None
                self._sleep(proc, action.channel, timeout, on_cpu)
                return
            if isinstance(action, Exit):
                self._do_exit(proc, status=action.status)
                return
            raise KernelError(f"behavior returned unknown action {action!r}")
        raise KernelError(
            f"pid {proc.pid} issued {_MAX_IMMEDIATE_ACTIONS} zero-length "
            "actions in a row; behavior is likely stuck"
        )

    # ------------------------------------------------------------------
    # CPU dispatch
    # ------------------------------------------------------------------
    def _schedule_burst(self, proc: Process, *, restart: bool) -> None:
        """(Re)arm the burst-completion event for the running ``proc``."""
        now = self._clock._now
        if restart:
            proc.run_start = now
        done_at = proc.run_start + proc.pending_burst_us
        if done_at < now:
            done_at = now
        proc.burst_handle = self._equeue_schedule(
            done_at, self._on_burst_complete, _EVPRI_BURST, proc, proc.tag_burst
        )

    def _on_burst_complete(self, event) -> None:
        proc: Process = event.payload
        if (
            proc.state is not ProcState.RUNNING
            or proc.cpu_index is None
            or self.cpus[proc.cpu_index] is not proc
        ):
            return  # stale event (should have been cancelled)
        proc.burst_handle = None
        self._charge_proc(proc)
        self._advance_guarded(proc, True)

    def _charge_proc(self, proc: Process) -> None:
        """Account one running process's in-flight CPU consumption.

        The estcpu charge and priority recomputation are inlined copies
        of :func:`charge_estcpu` / :func:`user_priority` over config
        scalars hoisted at construction — this runs on every burst
        completion, preemption, and schedclock tick, and the expressions
        must stay operation-for-operation identical to the module
        functions (the strict path and the property tests compare them).
        """
        now = self._clock._now
        consumed = now - proc.run_start
        if consumed <= 0:
            return
        proc.cpu_time += consumed
        pending = proc.pending_burst_us - consumed
        proc.pending_burst_us = pending if pending > 0 else 0
        estcpu = self._estcpu
        slot = proc.slot
        est = estcpu[slot] + consumed / self._tick_us
        limit = self._estcpu_limit
        if est > limit:
            est = limit
        estcpu[slot] = est
        pri = self._puser + est / self._estcpu_weight + self._nice_weight * proc.nice
        if pri < 0:
            self._priority[slot] = 0
        elif pri > self._maxpri:
            self._priority[slot] = self._maxpri
        else:
            self._priority[slot] = int(pri)
        proc.run_start = now
        self.total_busy_us += consumed

    def _charge_current(self) -> None:
        """Materialise the in-flight charges of every running process."""
        for proc in self.cpus:
            if proc is not None:
                self._charge_proc(proc)

    def _dispatch(self) -> None:
        """Fill idle CPUs with the best runnable processes."""
        cpus = self.cpus
        if len(cpus) == 1 and cpus[0] is not None:
            return  # uniprocessor, busy: nothing to fill
        for i, occupant in enumerate(cpus):
            if occupant is not None:
                continue
            proc = self.runq.pop_best()
            if proc is None:
                return
            self._on_runq.discard(proc.pid)
            slot = proc.slot
            if self._boost[slot] != NO_VALUE:
                # The wakeup boost is consumed at dispatch; user-mode
                # work proceeds at the ordinary decay-usage priority.
                # (Inlined user_priority, see _charge_proc.)
                self._boost[slot] = NO_VALUE
                pri = (
                    self._puser
                    + self._estcpu[slot] / self._estcpu_weight
                    + self._nice_weight * proc.nice
                )
                if pri < 0:
                    self._priority[slot] = 0
                elif pri > self._maxpri:
                    self._priority[slot] = self._maxpri
                else:
                    self._priority[slot] = int(pri)
            proc.state = ProcState.RUNNING
            proc.cpu_index = i
            self.cpus[i] = proc
            self._oncpu += 1
            self.context_switches += 1
            obs = self._obs
            if obs is not None and obs.enabled:
                obs.events.emit(
                    self._clock._now, "kernel.ctxsw", pid=proc.pid, cpu=i
                )
            proc.run_start = self._clock._now + self._ctx_switch_us
            self._schedule_burst(proc, restart=False)

    def _preempt_cpu(self, index: int) -> None:
        """Take the process on CPU ``index`` off and requeue it."""
        proc = self.cpus[index]
        if proc is None:
            return
        if proc.burst_handle is not None:
            proc.burst_handle.cancel()
            proc.burst_handle = None
        self._charge_proc(proc)
        proc.state = ProcState.RUNNABLE
        proc.preemptions += 1
        proc.cpu_index = None
        self.cpus[index] = None
        self._oncpu -= 1
        if not proc.stopped:
            self.runq.insert(proc)
            self._on_runq.add(proc.pid)

    def _setrunnable(self, proc: Process) -> None:
        """Make ``proc`` eligible for dispatch (unless stopped)."""
        proc.state = ProcState.RUNNABLE
        if proc.stopped:
            return  # parked until SIGCONT
        self._unpark(proc)
        slot = proc.slot
        est = self._estcpu[slot]
        if proc.slptime >= 1:
            est = wakeup_decay(
                self.cfg, est, proc.nice, self.loadavg.value, proc.slptime
            )
            self._estcpu[slot] = est
            proc.slptime = 0
        # Inlined user_priority (see _charge_proc).
        pri = (
            self._puser
            + est / self._estcpu_weight
            + self._nice_weight * proc.nice
        )
        if pri < 0:
            pri = 0
        elif pri > self._maxpri:
            pri = self._maxpri
        else:
            pri = int(pri)
        boost = self._boost[slot]
        if boost != NO_VALUE and boost < pri:
            pri = boost
        self._priority[slot] = pri
        if proc.pid not in self._on_runq:
            self.runq.insert(proc)
            self._on_runq.add(proc.pid)
        self._request_resched()

    def _inst_priority(self, proc: Process) -> int:
        """A running process's priority including in-flight CPU usage.

        Inlined charge_estcpu/user_priority (see _charge_proc).
        """
        inflight = self._clock._now - proc.run_start
        if inflight < 0:
            inflight = 0
        est = self._estcpu[proc.slot] + inflight / self._tick_us
        limit = self._estcpu_limit
        if est > limit:
            est = limit
        pri = self._puser + est / self._estcpu_weight + self._nice_weight * proc.nice
        if pri < 0:
            return 0
        if pri > self._maxpri:
            return self._maxpri
        return int(pri)

    def _worst_cpu(self) -> Optional[tuple[int, int]]:
        """(index, instantaneous priority) of the worst-priority running
        process, or None if some CPU is idle."""
        worst: Optional[tuple[int, int]] = None
        for i, proc in enumerate(self.cpus):
            if proc is None:
                return None
            pri = self._inst_priority(proc)
            if worst is None or pri > worst[1]:
                worst = (i, pri)
        return worst

    # ------------------------------------------------------------------
    # Deferred rescheduling
    # ------------------------------------------------------------------
    def _advance_guarded(self, proc: Process, on_cpu: bool) -> None:
        """Run :meth:`_advance` under the dispatch-depth guard.

        Rescheduling requested from inside the behavior callback is
        deferred until the guard unwinds, so kernel state is consistent
        when the context switch happens.  (Specialised for ``_advance``
        — its only caller — to avoid ``*args`` packing on every event.)
        """
        self._dispatch_depth += 1
        try:
            self._advance(proc, on_cpu)
        finally:
            self._dispatch_depth -= 1
        if self._dispatch_depth == 0 and self._resched_pending:
            self._resched_pending = False
            self._resched_now()

    def _request_resched(self) -> None:
        if self._dispatch_depth > 0:
            self._resched_pending = True
        else:
            self._resched_now()

    def _resched_now(self) -> None:
        cpus = self.cpus
        if len(cpus) == 1:
            # Uniprocessor fast path (the paper's testbed): the only CPU
            # is also the worst, so skip the _worst_cpu scan/tuple.
            proc = cpus[0]
            if proc is None:
                self._dispatch()
                return
            best = self.runq.best_priority()
            if best is not None and best < self._inst_priority(proc):
                self._preempt_cpu(0)
                self._dispatch()
            return
        worst = self._worst_cpu()
        if worst is None:  # at least one idle CPU
            self._dispatch()
            return
        best = self.runq.best_priority()
        if best is not None and best < worst[1]:
            self._preempt_cpu(worst[0])
            self._dispatch()

    # ------------------------------------------------------------------
    # Sleep / wakeup
    # ------------------------------------------------------------------
    def _sleep(
        self, proc: Process, channel: str, timeout: Optional[int], on_cpu: bool
    ) -> None:
        if on_cpu:
            if proc.cpu_index is None or self.cpus[proc.cpu_index] is not proc:
                raise InvalidProcessStateError(
                    f"pid {proc.pid} sleeping on-cpu but is not running"
                )
            proc.voluntary_switches += 1
            self.cpus[proc.cpu_index] = None
            self._oncpu -= 1
            proc.cpu_index = None
        if timeout == 0:
            # Zero-length sleep: yield the CPU but wake immediately.
            proc.state = ProcState.RUNNABLE
            self._setrunnable(proc)
            self._request_resched()
            return
        proc.state = ProcState.SLEEPING
        proc.wait_channel = channel
        self._park(proc)
        waiters = self._channels.get(channel)
        if waiters is None:
            self._channels[channel] = [proc]
        else:
            waiters.append(proc)
        if timeout is not None:
            # Timeout expiries are quantized to the callout resolution,
            # as tsleep/nanosleep/setitimer are on real kernels: the
            # callout fires at the first timer edge at or after the
            # nominal deadline.
            deadline = self._clock._now + timeout
            res = self._callout_res_us
            deadline = ((deadline + res - 1) // res) * res
            proc.sleep_handle = self._equeue_schedule(
                deadline, self._on_sleep_timeout, _EVPRI_SLEEP, proc, proc.tag_wake
            )
        self._request_resched()

    def _on_sleep_timeout(self, event) -> None:
        proc: Process = event.payload
        if proc.state is not ProcState.SLEEPING:
            return  # stale
        proc.sleep_handle = None
        waiters = self._channels.get(proc.wait_channel or "")
        if waiters:
            try:
                waiters.remove(proc)
            except ValueError:
                pass
            if not waiters:
                self._channels.pop(proc.wait_channel or "", None)
        self._finish_sleep(proc)
        self._request_resched()

    def _finish_sleep(self, proc: Process) -> None:
        """Complete a sleep: ask the behavior what to do next.

        The process receives the tsleep wakeup-priority boost, so if it
        becomes runnable it preempts user-mode work immediately (as a
        process returning from a kernel sleep does on BSD).
        """
        proc.wait_channel = None
        proc.state = ProcState.RUNNABLE
        self._boost[proc.slot] = self.cfg.sleep_priority
        self._advance_guarded(proc, False)

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _do_stop(self, proc: Process) -> None:
        if proc.stopped:
            return
        proc.stopped = True
        if proc.state is ProcState.RUNNING and proc.cpu_index is not None:
            # Target is on a CPU: take it off without requeueing.
            self._preempt_cpu(proc.cpu_index)
            self._request_resched()
        elif proc.pid in self._on_runq:
            self.runq.remove(proc)
            self._on_runq.discard(proc.pid)
        # SLEEPING: stays asleep; slptime keeps accruing while stopped.
        self._park(proc)

    def _do_cont(self, proc: Process) -> None:
        if not proc.stopped:
            return
        proc.stopped = False
        if proc.state is ProcState.RUNNABLE:
            self._setrunnable(proc)
        # SLEEPING: resumes waiting; nothing to do.

    def _do_exit(self, proc: Process, *, status: int) -> None:
        if proc.state is ProcState.ZOMBIE:
            return
        if proc.state is ProcState.RUNNING and proc.cpu_index is not None:
            if proc.burst_handle is not None:
                proc.burst_handle.cancel()
                proc.burst_handle = None
            self._charge_proc(proc)
            self.cpus[proc.cpu_index] = None
            self._oncpu -= 1
            proc.cpu_index = None
            self._request_resched()
        if proc.pid in self._on_runq:
            self.runq.remove(proc)
            self._on_runq.discard(proc.pid)
        if proc.sleep_handle is not None:
            proc.sleep_handle.cancel()
            proc.sleep_handle = None
        if proc.wait_channel is not None:
            waiters = self._channels.get(proc.wait_channel)
            if waiters:
                try:
                    waiters.remove(proc)
                except ValueError:
                    pass
            proc.wait_channel = None
        self._unpark(proc)  # zombie keeps the eager-path slptime/estcpu
        self._scheduled[proc.slot] = 0
        proc.state = ProcState.ZOMBIE
        proc.exit_status = status
        self.exit_count += 1
        for hook in self._exit_hooks:
            hook(proc)
        self._request_resched()

    # ------------------------------------------------------------------
    # Periodic scheduler housekeeping
    # ------------------------------------------------------------------
    def _start_housekeeping(self) -> None:
        self.engine.after(
            self.cfg.schedclock_us,
            self._on_schedclock,
            priority=_EVPRI_HOUSEKEEPING,
            tag="schedclock",
        )
        self.engine.after(
            self.cfg.slice_us,
            self._on_roundrobin,
            priority=_EVPRI_HOUSEKEEPING,
            tag="roundrobin",
        )
        self.engine.after(
            self.cfg.schedcpu_us,
            self._on_schedcpu,
            priority=_EVPRI_HOUSEKEEPING,
            tag="schedcpu",
        )
        self.engine.after(
            self.cfg.loadavg_interval_us,
            self._on_loadavg,
            priority=_EVPRI_HOUSEKEEPING,
            tag="loadavg",
        )

    def _on_schedclock(self, event) -> None:
        # Never rotate out a process that was dispatched this very
        # instant (e.g. a wakeup coinciding with the housekeeping grid):
        # on real hardware the wakeup and the clock tick resolve in one
        # dispatch decision, not two.
        now = self._clock._now
        for i, proc in enumerate(self.cpus):
            if proc is None or now <= proc.run_start:
                continue
            self._charge_proc(proc)
            best = self.runq.best_priority()
            if best is not None and best < proc.priority:
                self._preempt_cpu(i)
                self._dispatch()
        self.engine.after(
            self.cfg.schedclock_us,
            self._on_schedclock,
            priority=_EVPRI_HOUSEKEEPING,
            tag="schedclock",
        )

    def _on_roundrobin(self, event) -> None:
        now = self._clock._now
        for i, proc in enumerate(self.cpus):
            if proc is None or not self.runq or now <= proc.run_start:
                continue
            self._charge_proc(proc)
            best = self.runq.best_priority()
            # Rotate if the best waiter is in the same or a better
            # priority bucket (BSD compares run-queue indexes).
            if best is not None and (best >> 2) <= (proc.priority >> 2):
                self._preempt_cpu(i)
                self._dispatch()
        self.engine.after(
            self.cfg.slice_us,
            self._on_roundrobin,
            priority=_EVPRI_HOUSEKEEPING,
            tag="roundrobin",
        )

    def _on_schedcpu(self, event) -> None:
        self._charge_current()
        load = self.loadavg.value
        self.perf_schedcpu_passes += 1
        if self._lazy:
            self._schedcpu_epoch += 1
            self._load_history.append(load)
            if self._oncpu == 0 and not self.runq:
                # Every non-zombie process is parked (sleeping/stopped),
                # so the pass would only age sleepers — deferred to wakeup.
                self.perf_schedcpu_idle_skips += 1
            else:
                self._schedcpu_columns(load)
        else:
            self._schedcpu_eager(load)
        self._request_resched()
        self.engine.after(
            self.cfg.schedcpu_us,
            self._on_schedcpu,
            priority=_EVPRI_HOUSEKEEPING,
            tag="schedcpu",
        )

    def _schedcpu_columns(self, load: float) -> None:
        """The lazy kernel's decay pass: one in-place sweep of the columns.

        Decays every directly scheduled process (parked ones replay
        their single first-pass decay at :meth:`_materialize_slptime`)
        with the vector forms of ``decay_estcpu`` / ``user_priority``,
        which are bit-exact against the scalar ones, boost ``min``
        included, then visits only the rows whose ``estcpu`` *and*
        priority moved, in slot (= table) order like
        :meth:`_schedcpu_eager`, to store the priority and requeue.
        The numpy views are locals: they must be gone before the next
        ``spawn`` grows the buffers.
        """
        est = np.frombuffer(self._estcpu, dtype=np.float64)
        nice = np.frombuffer(self._nice, dtype=np.int64)
        new_est = batched_decay(est, nice, load, self._estcpu_limit)
        changed = np.frombuffer(self._scheduled, dtype=np.bool_) & (new_est != est)
        if not changed.any():
            return
        # Priorities are >= 0 and NO_VALUE (-1) is the largest uint64,
        # so one unsigned ``min`` applies exactly the pending boosts.
        new_pri = np.minimum(
            batched_user_priority(self.cfg, new_est, nice).view(np.uint64),
            np.frombuffer(self._boost, dtype=np.uint64),
        )
        moved = new_pri != np.frombuffer(self._priority, dtype=np.uint64)
        rows = np.flatnonzero(changed & moved)
        np.copyto(est, new_est, where=changed)
        priority = self._priority
        on_runq = self._on_runq
        runq = self.runq
        table = self._table
        for slot, pri in zip(rows.tolist(), new_pri[rows].tolist()):
            proc = table[slot]
            if proc.pid in on_runq:
                runq.remove(proc)
                priority[slot] = pri
                runq.insert(proc)
            else:
                priority[slot] = pri

    def _schedcpu_eager(self, load: float) -> None:
        """The eager (``strict``) decay pass, one fused scalar loop: the
        oracle :meth:`_schedcpu_columns` is compared against.

        Per-pass constants hoisted, decay_estcpu / user_priority inlined
        operation-for-operation (as in _charge_proc;
        tests/kernel/test_schedcpu_pass.py compares).
        """
        factor = decay_factor(load)
        limit = self._estcpu_limit
        puser = self._puser
        estcpu_weight = self._estcpu_weight
        nice_weight = self._nice_weight
        maxpri = self._maxpri
        on_runq = self._on_runq
        runq = self.runq
        estcpu = self._estcpu
        priority = self._priority
        boosts = self._boost
        zombie = ProcState.ZOMBIE
        sleeping = ProcState.SLEEPING
        for proc, est in zip(self._table, estcpu):
            state = proc.state
            if state is zombie:
                continue
            if state is sleeping or proc.stopped:
                proc.slptime += 1
                if proc.slptime > 1:
                    continue  # updatepri handles long sleepers on wakeup
            nice = proc.nice
            new_est = factor * est + nice
            if new_est < 0.0:
                new_est = 0.0
            elif new_est > limit:
                new_est = limit
            if new_est == est:
                continue
            slot = proc.slot
            estcpu[slot] = new_est
            pri = puser + new_est / estcpu_weight + nice_weight * nice
            if pri < 0:
                pri = 0
            elif pri > maxpri:
                pri = maxpri
            else:
                pri = int(pri)
            boost = boosts[slot]
            if boost != NO_VALUE and boost < pri:
                pri = boost
            if pri != priority[slot]:
                if proc.pid in on_runq:
                    runq.remove(proc)
                    priority[slot] = pri
                    runq.insert(proc)
                else:
                    priority[slot] = pri

    def _on_loadavg(self, event) -> None:
        self.loadavg.sample(self.runnable_count())
        self.engine.after(
            self.cfg.loadavg_interval_us,
            self._on_loadavg,
            priority=_EVPRI_HOUSEKEEPING,
            tag="loadavg",
        )
