"""User-level view of the kernel: the "system call" facade.

Behaviors and user-level schedulers (ALPS agents) interact with the
kernel exclusively through this object.  It exposes only operations an
unprivileged UNIX process has: reading time, process accounting
(getrusage / kvm-style process inspection), sending signals, spawning
processes, and waking wait channels (the moral equivalent of writing to
a pipe another process sleeps on).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import NoSuchProcessError
from repro.kernel.process import ProcState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.behaviors import Behavior
    from repro.kernel.process import Process

_ZOMBIE = ProcState.ZOMBIE
_RUNNING = ProcState.RUNNING
_SLEEPING = ProcState.SLEEPING


class KernelAPI:
    """Unprivileged system-call surface of a :class:`~repro.kernel.kernel.Kernel`.

    The read-only inspection calls (``getrusage``, ``read_progress``,
    ``is_blocked``, ``is_stopped``, ``pid_exists``) are inlined copies
    of the matching :class:`Kernel` methods rather than delegations: an
    ALPS agent makes one of these per controlled pid per quantum, and
    the extra call frame is the single largest cost of the facade.
    They must stay behaviorally identical to the kernel-side originals.
    """

    __slots__ = ("_kernel", "_clock", "_procs")

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        self._clock = kernel.engine.clock
        self._procs = kernel.procs

    @property
    def now(self) -> int:
        """Current time (µs) — gettimeofday."""
        return self._clock._now

    @property
    def observer(self):
        """The kernel's attached :class:`repro.obs.Observer` (or None).

        User-level schedulers pick their observability handle up here —
        the moral equivalent of a tracing fd inherited from the
        environment — so agent construction needs no extra plumbing.
        """
        return self._kernel._obs

    def getrusage(self, pid: int) -> int:
        """CPU time consumed by ``pid`` (µs) — getrusage/kvm_getprocs."""
        proc = self._procs.get(pid)
        if proc is None or proc.state is _ZOMBIE:
            raise NoSuchProcessError(pid)
        cpu = proc.cpu_time
        if proc.state is _RUNNING:
            now = self._clock._now
            if now > proc.run_start:
                cpu += now - proc.run_start
        return cpu

    def read_progress(self, pid: int) -> tuple[int, bool, bool]:
        """``(cpu_us, blocked, stopped)`` of ``pid`` from one process
        read — kvm_getprocs' single ``kinfo_proc``, as the host's one
        ``/proc/<pid>/stat``: :meth:`getrusage`, :meth:`is_blocked` and
        :meth:`is_stopped` at once."""
        proc = self._procs.get(pid)
        if proc is None:
            raise NoSuchProcessError(pid)
        state = proc.state
        if state is _RUNNING:
            cpu = proc.cpu_time
            now = self._clock._now
            if now > proc.run_start:
                cpu += now - proc.run_start
            return cpu, False, proc.stopped
        if state is _ZOMBIE:
            raise NoSuchProcessError(pid)
        return (
            proc.cpu_time,
            state is _SLEEPING and proc.wait_channel is not None,
            proc.stopped,
        )

    def wait_channel_of(self, pid: int) -> Optional[str]:
        """Wait channel if ``pid`` is blocked, else None — kvm inspection."""
        return self._kernel.wait_channel_of(pid)

    def is_blocked(self, pid: int) -> bool:
        """True if ``pid`` is currently sleeping on some channel."""
        proc = self._procs.get(pid)
        if proc is None or proc.state is _ZOMBIE:
            raise NoSuchProcessError(pid)
        return proc.state is _SLEEPING and proc.wait_channel is not None

    def is_stopped(self, pid: int) -> bool:
        """True if ``pid`` is job-control stopped (``T`` in ps/kvm).

        An unprivileged scheduler uses this to audit its own
        SIGSTOP/SIGCONT bookkeeping against kernel truth (e.g. after a
        crash-restart invalidated its internal state).
        """
        proc = self._procs.get(pid)
        if proc is None or proc.state is _ZOMBIE:
            raise NoSuchProcessError(pid)
        return proc.stopped

    def kill(self, pid: int, signo: int) -> None:
        """Send a signal — kill(2)."""
        self._kernel.kill(pid, signo)

    def spawn(
        self,
        name: str,
        behavior: "Behavior",
        *,
        uid: int = 0,
        nice: int = 0,
        start_delay: int = 0,
    ) -> "Process":
        """Create a new process — fork/exec."""
        return self._kernel.spawn(
            name, behavior, uid=uid, nice=nice, start_delay=start_delay
        )

    def pids_of_uid(self, uid: int) -> list[int]:
        """All live pids owned by ``uid`` — kvm_getprocs(KERN_PROC_UID)."""
        return self._kernel.pids_of_uid(uid)

    def pid_exists(self, pid: int) -> bool:
        """True if ``pid`` names a live process."""
        proc = self._procs.get(pid)
        return proc is not None and proc.state is not _ZOMBIE

    def exit_count(self) -> int:
        """Total processes exited since boot — a sysctl-style global
        accounting counter.  Monotone; an unchanged value guarantees no
        process died since the previous read, letting a user-level
        scheduler skip its per-quantum liveness sweep."""
        return self._kernel.exit_count

    def wakeup(self, channel: str) -> int:
        """Wake sleepers on ``channel`` (e.g. producer/consumer handoff)."""
        return self._kernel.wakeup(channel)

    def wakeup_one(self, channel: str) -> bool:
        """Wake a single sleeper on ``channel`` (no thundering herd)."""
        return self._kernel.wakeup_one(channel)
