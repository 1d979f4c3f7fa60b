"""A scripted one-CPU host behind procfs, ``os.kill`` and HostAlps's clock.

``HostAlps.run`` against it needs no real process and no real sleep:
each ``time.sleep`` of the controller advances a virtual clock and
splits that interval's CPU equally among the runnable pids (alive, not
SIGSTOPped, not sleeping).  Signals move pids in and out of
``stopped``, which procfs shows as state ``T``.  ``controller`` is the
pid chain the controller sees as itself and its ancestors.
"""

from __future__ import annotations

import os
import signal
import time
from types import SimpleNamespace
from typing import Callable

from repro.errors import HostOSError
from repro.hostos import controller, procfs, scan


class FakeHost:
    def __init__(self, monkeypatch) -> None:
        self.now = 100.0
        self.usage: dict[int, int] = {}
        self.uid: dict[int, int] = {}
        self.sleeping: set[int] = set()
        self.stopped: set[int] = set()
        self.controller: list[int] = []
        #: ``(now, pid, signo)`` for every delivered signal.
        self.sent: list[tuple[float, int, int]] = []
        self._events: list[tuple[float, Callable[[], None]]] = []
        monkeypatch.setattr(procfs, "read_proc_stat", self.read_stat)
        monkeypatch.setattr(
            procfs, "cpu_time_us", lambda pid: self.read_stat(pid).cpu_time_us
        )
        monkeypatch.setattr(procfs, "proc_state", lambda pid: self.read_stat(pid).state)
        monkeypatch.setattr(procfs, "is_alive", lambda pid: pid in self.usage)
        monkeypatch.setattr(
            scan, "pids_of_uid",
            lambda uid: sorted(p for p, u in self.uid.items() if u == uid),
        )
        monkeypatch.setattr(scan, "ancestors", lambda pid: list(self.controller))
        monkeypatch.setattr(os, "kill", self.kill)
        monkeypatch.setattr(
            controller,
            "time",
            SimpleNamespace(
                monotonic=lambda: self.now,
                sleep=self.sleep,
                process_time=time.process_time,
            ),
        )

    # -- the process table -------------------------------------------------
    def spawn(self, pid: int, *, uid: int = 0, sleeping: bool = False) -> int:
        self.usage[pid] = 0
        self.uid[pid] = uid
        if sleeping:
            self.sleeping.add(pid)
        return pid

    def exit(self, pid: int) -> None:
        del self.usage[pid]
        del self.uid[pid]
        self.sleeping.discard(pid)
        self.stopped.discard(pid)

    def at(self, t: float, action: Callable[[], None]) -> None:
        """Run ``action`` once the virtual clock reaches ``t``."""
        self._events.append((t, action))
        self._events.sort(key=lambda e: e[0])

    # -- what the controller sees ------------------------------------------
    def read_stat(self, pid: int) -> procfs.ProcStat:
        if pid not in self.usage:
            raise HostOSError(f"no such process {pid}")
        if pid in self.stopped:
            state = "T"
        elif pid in self.sleeping:
            state = "S"
        else:
            state = "R"
        return procfs.ProcStat(
            pid, "fake", state, self.usage[pid] // procfs._US_PER_TICK, 0
        )

    def kill(self, pid: int, signo: int) -> None:
        if pid not in self.usage:
            raise ProcessLookupError(pid)
        self.sent.append((self.now, pid, signo))
        if signo == signal.SIGSTOP:
            self.stopped.add(pid)
        elif signo == signal.SIGCONT:
            self.stopped.discard(pid)

    def sleep(self, dt: float) -> None:
        end = self.now + dt
        while self._events and self._events[0][0] <= end:
            t, action = self._events.pop(0)
            self._run_cpu(max(0.0, t - self.now))
            action()
        self._run_cpu(end - self.now)

    def _run_cpu(self, dt: float) -> None:
        runnable = [
            pid for pid in self.usage
            if pid not in self.stopped and pid not in self.sleeping
        ]
        for pid in runnable:
            self.usage[pid] += int(dt * 1_000_000 / len(runnable))
        self.now += dt

    def longest_stop(self, pid: int, since: float) -> float:
        """Longest stretch ``pid`` spent SIGSTOPped after ``since``."""
        longest, stopped_at = 0.0, None
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
            longest = max(longest, self.now - max(stopped_at, since))
        return longest
