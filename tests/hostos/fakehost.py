"""The simulated kernel behind ``HostAlps``'s host port.

:class:`FakeHost` is a :class:`~repro.hostos.port.ProcfsHost` whose raw
OS calls land in a :class:`~repro.kernel.kernel.Kernel` instead of
Linux: ``sleep`` advances the engine, ``stat`` answers from the PCB
(``R``/``S``/``T``/``Z``, CPU in µs), ``kill`` delivers the signal, and
the clock is the engine's.  The port's own rules — a zombie is dead,
above all — are inherited, not re-implemented, so ``HostAlps.run``
over it exercises them with no real process and no real sleep.
Flaky reads, EPERM or EINTR are small overrides of a method.
"""

from __future__ import annotations

import signal
from typing import Callable

from repro.errors import HostOSError, NoSuchProcessError
from repro.hostos.port import ProcfsHost
from repro.kernel import KernelConfig, make_kernel
from repro.kernel.actions import SleepOn
from repro.kernel.behaviors import behavior
from repro.kernel.kernel import Kernel
from repro.kernel.process import ProcState
from repro.kernel.signals import SIGCONT, SIGKILL, SIGSTOP
from repro.sim.engine import Engine
from repro.workloads.spinner import spinner_behavior

#: Host signal numbers -> the simulated kernel's.
SIGNALS = {signal.SIGSTOP: SIGSTOP, signal.SIGCONT: SIGCONT, signal.SIGKILL: SIGKILL}


def pcb_stat(kernel: Kernel, pid: int) -> tuple[int, str]:
    """``(cpu_us, state)`` of ``pid`` from its PCB, as /proc would show it."""
    proc = kernel.procs.get(pid)
    if proc is None:
        raise HostOSError(f"no such process {pid}")
    if proc.state is ProcState.ZOMBIE:
        return proc.cpu_time, "Z"
    if proc.stopped:
        state = "T"
    elif proc.state is ProcState.SLEEPING and proc.wait_channel is not None:
        state = "S"  # blocked exactly when the agent's kapi says so
    else:
        state = "R"
    return kernel.getrusage(pid), state


@behavior
def sleeper(proc, kapi):
    """Blocked for good on a wait channel nobody wakes."""
    yield SleepOn("forever")


class FakeHost(ProcfsHost):
    def __init__(self, seed: int = 0) -> None:
        self.engine = Engine(seed=seed)
        self.kernel = make_kernel(self.engine, KernelConfig())
        #: The pid chain the controller sees as itself and its ancestors.
        self.controller: list[int] = []
        #: ``(now_us, pid, host signo)`` for every signal sent.
        self.sent: list[tuple[int, int, int]] = []

    # -- the process table -------------------------------------------------
    def spawn(self, *, uid: int = 0, sleeping: bool = False) -> int:
        """A spinner (or a process blocked for good); returns its pid."""
        body = sleeper() if sleeping else spinner_behavior()
        return self.kernel.spawn("p", body, uid=uid).pid

    def exit(self, pid: int) -> None:
        """The process exits; its PCB stays, a zombie, like an unreaped
        child in /proc."""
        self.kernel.kill(pid, SIGKILL)

    def at(self, t_us: int, action: Callable[[], None]) -> None:
        """Run ``action`` once the clock reaches ``t_us``."""
        self.engine.at(t_us, lambda event: action())

    def usage(self, pid: int) -> int:
        return self.stat(pid)[0]

    @property
    def stopped(self) -> set[int]:
        """Pids job-control stopped right now (kernel truth)."""
        return {
            pid for pid, proc in self.kernel.procs.items()
            if proc.stopped and proc.state is not ProcState.ZOMBIE
        }

    def longest_stop(self, pid: int, since: int) -> int:
        """Longest stretch (µs) ``pid`` spent SIGSTOPped after ``since``."""
        longest, stopped_at = 0, None
        for t, p, signo in self.sent:
            if p != pid:
                continue
            if signo == signal.SIGSTOP and stopped_at is None:
                stopped_at = t
            elif signo == signal.SIGCONT and stopped_at is not None:
                if t > since:
                    longest = max(longest, t - max(stopped_at, since))
                stopped_at = None
        if stopped_at is not None:
            longest = max(longest, self.clock() - max(stopped_at, since))
        return longest

    # -- the port's raw calls ----------------------------------------------
    def clock(self) -> int:
        return self.engine.now

    def sleep(self, us: int) -> None:
        self.engine.run_until(self.engine.now + us)

    def cpu_time(self) -> int:
        return 0

    def stat(self, pid: int) -> tuple[int, str]:
        return pcb_stat(self.kernel, pid)

    def kill(self, pid: int, signo: int) -> None:
        try:
            self.kernel.kill(pid, SIGNALS[signo])
        except NoSuchProcessError:
            raise ProcessLookupError(pid) from None
        self.sent.append((self.clock(), pid, signo))

    def pids_of_uid(self, uid: int) -> list[int]:
        return self.kernel.pids_of_uid(uid)

    def ancestors(self) -> list[int]:
        return list(self.controller)
