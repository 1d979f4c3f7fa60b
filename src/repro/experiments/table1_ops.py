"""Table 1: costs of ALPS's primary operations.

The paper measured, on FreeBSD 4.8 / 2.2 GHz P4: timer event 9.02 µs,
measuring CPU time of n processes 1.1 + 17.4·n µs, signalling 0.97 µs.
This module measures the same three primitives live on the current
Linux host (the numbers differ — modern hardware, /proc instead of
kvm — but the *structure*, measurement cost dominating and growing
linearly in n, is the reproduced claim).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.hostos.procfs import proc_state, read_proc_stat
from repro.hostos.spawn import spawn_spinner


@dataclass(slots=True, frozen=True)
class Table1Result:
    """Measured per-operation costs (µs) plus the paper's constants."""

    timer_event_us: float
    measure_fixed_us: float
    measure_per_proc_us: float
    signal_us: float

    PAPER_TIMER_US = 9.02
    PAPER_MEASURE_FIXED_US = 1.1
    PAPER_MEASURE_PER_PROC_US = 17.4
    PAPER_SIGNAL_US = 0.97


@contextmanager
def _spinners(n: int) -> Iterator[list[int]]:
    procs = [spawn_spinner() for _ in range(n)]
    try:
        yield [p.pid for p in procs]
    finally:
        for p in procs:
            p.kill()
        for p in procs:
            p.wait()


def time_timer_event(iterations: int = 2000) -> float:
    """Cost (µs) of receiving a timer-style event.

    Measured as self-signal delivery + ``sigtimedwait`` return — the
    same wake-from-kernel path a quantum timer exercises.  The signal
    is sent to this thread, not the process: a process-directed one may
    land on another thread that does not block it (numpy's BLAS
    workers), which drops it under ``SIG_IGN`` and leaves
    ``sigtimedwait`` to wait out its full timeout.
    """
    signo = signal.SIGUSR1
    old = signal.signal(signo, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_BLOCK, {signo})
    try:
        me = threading.get_ident()
        t0 = time.perf_counter()
        for _ in range(iterations):
            signal.pthread_kill(me, signo)
            signal.sigtimedwait({signo}, 1.0)
        elapsed = time.perf_counter() - t0
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signo})
        signal.signal(signo, old)
    return 1e6 * elapsed / iterations


def time_measure_ladder(
    sizes: Sequence[int] = (1, 2, 4, 8, 16), iterations: int = 200
) -> tuple[float, float]:
    """Fit ``a + b·n`` to the cost of reading n processes' CPU time.

    Returns ``(fixed_us, per_proc_us)`` — the live analogue of the
    paper's 1.1 + 17.4·n.  The spinners are read while SIGSTOPped:
    running, they would take the reader's CPU, and the slope would be
    the reader's wait for a CPU rather than the read.
    """
    ns: list[int] = []
    costs: list[float] = []
    with _spinners(max(sizes)) as pids:
        time.sleep(0.05)  # let /proc entries settle
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        deadline = time.monotonic() + 1.0
        while any(proc_state(pid) != "T" for pid in pids):
            if time.monotonic() > deadline:
                raise RuntimeError("spinners did not stop")
            time.sleep(0.001)
        for n in sizes:
            subset = pids[:n]
            t0 = time.perf_counter()
            for _ in range(iterations):
                for pid in subset:
                    read_proc_stat(pid)
            per_iter_us = 1e6 * (time.perf_counter() - t0) / iterations
            ns.append(n)
            costs.append(per_iter_us)
    slope, intercept = np.polyfit(ns, costs, 1)
    return float(max(intercept, 0.0)), float(slope)


def time_signal(iterations: int = 5000) -> float:
    """Cost (µs) of sending one signal to another process."""
    with _spinners(1) as pids:
        pid = pids[0]
        t0 = time.perf_counter()
        for _ in range(iterations):
            os.kill(pid, signal.SIGCONT)  # no-op for a running process
        elapsed = time.perf_counter() - t0
    return 1e6 * elapsed / iterations


def run_table1(*, quick: bool = False) -> Table1Result:
    """Measure all three primitives on this host."""
    scale = 4 if quick else 1
    timer = time_timer_event(iterations=2000 // scale)
    fixed, per_proc = time_measure_ladder(iterations=200 // scale)
    sig = time_signal(iterations=5000 // scale)
    return Table1Result(
        timer_event_us=timer,
        measure_fixed_us=fixed,
        measure_per_proc_us=per_proc,
        signal_us=sig,
    )
