"""HostAlps failure handling on :class:`FakeHost`: flaky reads, EPERM,
ESRCH and EINTR are small overrides of one host-port method."""

from __future__ import annotations

import signal

import pytest

from repro.errors import HostOSError
from repro.hostos.controller import HostAlps
from repro.kernel.process import ProcState
from repro.kernel.signals import SIGSTOP
from repro.obs.observer import Observer
from repro.units import ms
from tests.hostos.fakehost import FakeHost


def failing(*errors):
    """A host-port method raising ``errors`` in turn, then ``None``."""
    pending = list(errors)

    def call(*args):
        if pending:
            raise pending.pop(0)

    return call


def flaky_reads(host: FakeHost, failures: int):
    """The next ``failures`` reads fail as if torn, the pid still there."""
    real_read = host.read
    left = [failures]

    def read(pid):
        if left[0]:
            left[0] -= 1
            raise HostOSError("torn read")
        return real_read(pid)

    host.read = read


def one_pid(**kwargs):
    host = FakeHost()
    pid = host.spawn()
    alps = HostAlps({pid: 1}, quantum_s=0.05, host=host, **kwargs)
    return host, pid, alps


def measured_next(host: FakeHost, alps: HostAlps) -> None:
    """Run the first quantum (it only makes everyone eligible) and one
    quantum's CPU: the next quantum measures every subject."""
    alps._one_quantum()
    host.sleep(ms(50))


def test_transient_read_is_retried_then_succeeds():
    host, pid, alps = one_pid(read_retry_budget=3)
    measured_next(host, alps)
    flaky_reads(host, 2)
    alps._one_quantum()
    assert alps.read_retries == 2
    assert alps.step.last_read[pid] == host.usage(pid)


def test_exhausted_read_budget_returns_none():
    """Out of retries, the pid is skipped for the quantum: its baseline
    stays, so the next read charges the whole interval, and it is not
    taken for dead."""
    host, pid, alps = one_pid(read_retry_budget=1)
    alps.step.baseline(pid)
    measured_next(host, alps)
    flaky_reads(host, 2)
    alps._one_quantum()
    assert alps.read_retries == 1
    assert alps.step.last_read[pid] == 0
    assert pid in alps.core.subjects


def test_dead_pid_read_returns_none_without_retrying():
    host, pid, alps = one_pid(read_retry_budget=5)
    measured_next(host, alps)
    host.exit(pid)
    alps._one_quantum()
    assert alps.read_retries == 0
    assert pid not in alps.core.subjects


def test_rejects_negative_retry_budget():
    with pytest.raises(HostOSError):
        HostAlps({1: 1}, quantum_s=0.05, read_retry_budget=-1)


def test_signal_eperm_marks_uncontrollable_and_drops():
    host = FakeHost()
    a, b = host.spawn(), host.spawn()
    alps = HostAlps({a: 1, b: 1}, quantum_s=0.05, host=host)
    host.kill = failing(PermissionError("EPERM"))
    alps._signal(a, signal.SIGSTOP)
    assert a in alps.uncontrollable
    assert a not in alps.core.subjects
    assert a not in alps.step.stopped
    assert b in alps.core.subjects  # others unaffected


def test_signal_esrch_forgets_stop_state_but_keeps_subject():
    """A vanished pid (ESRCH) is not an EPERM: the stop-set entry goes,
    and the next measurement's death path removes the subject."""
    host, pid, alps = one_pid()
    alps.step.stopped.add(pid)
    host.kill = failing(ProcessLookupError("ESRCH"))
    alps._signal(pid, signal.SIGCONT)
    assert pid not in alps.step.stopped
    assert pid not in alps.uncontrollable


def test_resume_all_consults_kernel_truth():
    """A pid stopped without bookkeeping (crash between SIGSTOP and the
    stop-set update) must still get its SIGCONT on exit."""
    host, pid, alps = one_pid()
    host.kernel.kill(pid, SIGSTOP)
    alps._resume_all()
    assert host.sent[-1][1:] == (pid, signal.SIGCONT)
    assert not host.stopped
    assert alps.step.stopped == set()


def test_resume_all_skips_running_processes():
    host, _, alps = one_pid()
    alps._resume_all()
    assert host.sent == []


def test_run_reports_last_read_for_died_process():
    """The died-mid-run fallback: once the process is reaped its
    consumption is reported from the last successful reading, never
    raising and never inventing CPU time."""
    host = FakeHost()
    pid = host.spawn()
    alps = HostAlps({pid: 1}, quantum_s=0.01, host=host)
    real_stat = host.stat

    def reaped(p):
        if host.kernel.procs[p].state is ProcState.ZOMBIE:
            raise HostOSError("no such process")
        return real_stat(p)

    host.stat = reaped
    host.at(1, lambda: host.exit(pid))
    report = alps.run(0.03)
    assert report.consumed_us == {pid: 0}  # last read == baseline
    assert pid not in alps.core.subjects  # dropped, not wedged
    assert host.sent == []


# ----------------------------------------------------------------------
# _resume_all transient-failure retries (docs/resilience.md)
# ----------------------------------------------------------------------
def test_resume_one_retries_eintr_then_succeeds():
    host, pid, alps = one_pid(resume_retry_budget=3)
    host.kill = failing(InterruptedError("EINTR"), InterruptedError("EINTR"))
    assert alps._resume_one(pid)
    assert alps.resume_retries == 2
    assert alps.resume_failures == 0
    assert host.clock() == ms(1) + ms(2)  # backed off on the host's clock


def test_resume_one_exhausted_budget_counts_failure():
    host, pid, alps = one_pid(resume_retry_budget=2)
    host.kill = failing(*[BlockingIOError("EAGAIN")] * 3)
    assert not alps._resume_one(pid)
    assert alps.resume_retries == 2
    assert alps.resume_failures == 1


def test_resume_one_unrecovered_pid_is_reported():
    obs = Observer()
    host, pid, alps = one_pid(resume_retry_budget=1, observer=obs)
    host.kill = failing(*[InterruptedError("EINTR")] * 2)
    assert not alps._resume_one(pid)
    failed = obs.events.of_kind("hostalps.resume_failed")
    assert len(failed) == 1
    assert failed[0].fields["pid"] == pid


def test_resume_one_gone_or_denied_needs_no_retry():
    host, pid, alps = one_pid(resume_retry_budget=5)
    host.kill = failing(ProcessLookupError())
    assert alps._resume_one(pid)  # gone: nothing left to recover
    host.kill = failing(PermissionError())
    assert alps._resume_one(pid)  # not ours: retrying cannot help
    assert alps.resume_retries == 0
    assert alps.resume_failures == 0


def test_resume_all_keeps_unresumed_pid_in_stop_set():
    """A pid the budget could not resume stays in the stop-set: a later
    _resume_all (or the exit path's) gets another chance at it."""
    host, pid, alps = one_pid(resume_retry_budget=1)
    alps.step.stopped.add(pid)
    host.kill = failing(*[InterruptedError()] * 2)
    alps._resume_all()
    assert pid in alps.step.stopped
    assert alps.resume_failures == 1
