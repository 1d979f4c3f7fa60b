"""Host overload protection: admission control over the host port's pids
(:class:`FakeHost`, the simulated kernel behind it)."""

import pytest

from repro.errors import HostOSError
from repro.hostos.controller import HostAlps
from repro.obs import Observer
from repro.overload import OverloadConfig, OverloadGuard
from tests.hostos.fakehost import FakeHost


def test_submit_pid_rejects_bad_share():
    alps = HostAlps({1: 5}, quantum_s=0.05)
    with pytest.raises(HostOSError):
        alps.submit_pid(1234, 0)


def test_submit_pid_without_guard_admits_immediately():
    host = FakeHost()
    a, b = host.spawn(), host.spawn()
    alps = HostAlps({a: 2}, quantum_s=0.05, host=host)
    assert alps.submit_pid(b, 3)
    assert b in alps.core.subjects
    report = alps.run(0.5)
    assert report.overload_stats is None
    assert report.consumed_us[b] > 0


def test_submit_pid_with_spare_capacity_admits():
    host = FakeHost()
    a, b = host.spawn(), host.spawn()
    guard = OverloadGuard(OverloadConfig(capacity=3))
    alps = HostAlps({a: 1}, quantum_s=0.05, overload=guard, host=host)
    assert alps.submit_pid(b, 1)
    assert guard.admission.depth == 0
    report = alps.run(0.3)
    assert report.overload_stats is not None
    assert report.overload_stats["admission.admitted_immediately"] == 1


def test_queued_pid_drains_when_a_member_dies():
    host = FakeHost()
    a, b, c = (host.spawn() for _ in range(3))
    obs = Observer()
    guard = OverloadGuard(OverloadConfig(capacity=2))
    alps = HostAlps(
        {a: 1, b: 1}, quantum_s=0.05, overload=guard, observer=obs, host=host
    )
    # The group is at capacity: the arrival has to wait its turn.
    assert not alps.submit_pid(c, 2)
    assert guard.admission.depth == 1
    assert c not in alps.core.subjects
    # A member dies; the controller reaps it on the next read and a
    # later wake drains the queue into the freed slot.
    host.exit(a)
    alps.run(1.0)
    assert c in alps.core.subjects
    assert guard.admission.depth == 0
    kinds = [ev.kind for ev in obs.events.tail(len(obs.events))]
    assert "overload.queued" in kinds
    assert "overload.admitted" in kinds


def test_dead_arrival_is_dropped_not_enforced():
    host = FakeHost()
    a, b, victim = (host.spawn() for _ in range(3))
    guard = OverloadGuard(OverloadConfig(capacity=2))
    alps = HostAlps({a: 1, b: 1}, quantum_s=0.05, overload=guard, host=host)
    assert not alps.submit_pid(victim, 1)
    host.exit(victim)
    host.exit(b)
    alps.run(1.0)
    # The queued pid died before its slot opened: it must not join.
    assert victim not in alps.core.subjects
    assert guard.admission.depth == 0
