"""Table 1 — Primary ALPS operation times (µs).

Measures the three primitives live on this host (timer-event receipt,
reading CPU time of n processes, signalling a process) and prints them
next to the paper's FreeBSD-4.8 constants.  Numbers differ (modern
hardware, /proc instead of kvm); the reproduced *shape* is that the
measurement operation dominates and grows linearly with n.
"""

import os
import signal
import threading

from benchmarks.conftest import reproduce
from repro.experiments.registry import TABLE1
from repro.hostos.procfs import read_proc_stat
from repro.hostos.spawn import spawn_spinner


def test_bench_timer_event(benchmark):
    """Cost of receiving a timer-style event (signal + sigtimedwait).
    Thread-directed, as in ``time_timer_event``: another thread must not
    catch (and drop) it."""
    signo = signal.SIGUSR1
    old = signal.signal(signo, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_BLOCK, {signo})
    me = threading.get_ident()

    def one_event():
        signal.pthread_kill(me, signo)
        signal.sigtimedwait({signo}, 1.0)

    try:
        benchmark(one_event)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signo})
        signal.signal(signo, old)


def test_bench_measure_one_process(benchmark):
    """Cost of reading one process's CPU time from /proc."""
    child = spawn_spinner()
    try:
        benchmark(read_proc_stat, child.pid)
    finally:
        child.kill()
        child.wait()


def test_bench_signal(benchmark):
    """Cost of sending a signal to another process."""
    child = spawn_spinner()
    try:
        benchmark(os.kill, child.pid, signal.SIGCONT)
    finally:
        child.kill()
        child.wait()


def test_table1_summary(benchmark, results_dir):
    """Fit the full Table 1 on this host and print it beside the paper."""
    (result,) = reproduce(benchmark, results_dir, TABLE1, "table1_ops.csv")
    # Structural claim: per-process measurement dominates signalling.
    assert result.measure_per_proc_us > result.signal_us
