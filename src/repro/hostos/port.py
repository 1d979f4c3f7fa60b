"""The host port: every OS call :class:`~repro.hostos.controller.HostAlps`
makes, behind one object.

:class:`ProcfsHost` is the Linux implementation over ``/proc``,
``kill(2)`` and the monotonic clock.  A test substitutes a subclass
(tests/hostos/fakehost.py backs one with the simulated kernel) and
keeps the rules written here — above all that a zombie is dead.
"""

from __future__ import annotations

import os
import time

from repro.errors import HostOSError
from repro.hostos import procfs, scan

#: Run states of an exited process (zombie, dead): its /proc entry
#: lingers until it is reaped, but it never runs again.
GONE_STATES = frozenset("ZX")


class ProcfsHost:
    """The Linux host: /proc for progress and membership, ``kill(2)``
    for eligibility, the monotonic clock for quanta (all times µs)."""

    def clock(self) -> int:
        """Monotonic time (µs)."""
        return time.monotonic_ns() // 1_000

    def sleep(self, us: int) -> None:
        """Block the controller for ``us`` µs."""
        time.sleep(us / 1_000_000)

    def cpu_time(self) -> int:
        """The controller's own CPU time (µs) — the overhead numerator."""
        return time.process_time_ns() // 1_000

    def stat(self, pid: int) -> tuple[int, str]:
        """``(cpu_us, state)`` of ``pid`` as /proc shows it, zombies
        included; :class:`HostOSError` if it has no entry."""
        st = procfs.read_proc_stat(pid)
        return st.cpu_time_us, st.state

    def read(self, pid: int) -> tuple[int, str]:
        """``(cpu_us, state)`` of a live ``pid``; :class:`HostOSError`
        if it is gone or unreadable (a zombie is gone)."""
        cpu_us, state = self.stat(pid)
        if state in GONE_STATES:
            raise HostOSError(f"no such process: {pid} (state {state})")
        return cpu_us, state

    def pid_exists(self, pid: int) -> bool:
        """True if ``pid`` names a live process (not a zombie)."""
        try:
            return self.stat(pid)[1] not in GONE_STATES
        except HostOSError:
            return False

    def kill(self, pid: int, signo: int) -> None:
        """``kill(2)``; errno surfaces as its ``OSError`` subclass."""
        os.kill(pid, signo)

    def pids_of_uid(self, uid: int) -> list[int]:
        """Live pids owned by ``uid`` (kvm_getprocs(KERN_PROC_UID))."""
        return [pid for pid in scan.pids_of_uid(uid) if self.pid_exists(pid)]

    def ancestors(self) -> list[int]:
        """The controller's own pid and its ancestors short of init."""
        return scan.ancestors(os.getpid())
