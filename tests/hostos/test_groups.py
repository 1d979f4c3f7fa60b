"""Multi-process subjects on the host driver (the paper's Section 5).

All but the last test run ``HostAlps`` on :class:`FakeHost` — the
simulated kernel behind its host port — so they touch no real process,
never sleep, and run in the default suite.
"""

import signal

import pytest

from repro.alps.subjects import PidGroupSubject, UserSubject
from repro.errors import HostOSError
from repro.hostos import HostAlps, procfs
from repro.hostos.spawn import spawn_spinner
from repro.kernel.signals import SIGSTOP
from repro.units import ms, sec
from tests.hostos.fakehost import FakeHost


@pytest.fixture
def host():
    return FakeHost()


def test_config_validation():
    with pytest.raises(HostOSError):
        HostAlps([PidGroupSubject(0, 1, []), PidGroupSubject(0, 2, [])])
    with pytest.raises(HostOSError):
        HostAlps([PidGroupSubject(0, 1, [])], quantum_s=0)
    with pytest.raises(HostOSError):
        HostAlps([PidGroupSubject(0, 1, [])], refresh_s=0)


def test_groups_share_one_allocation(host):
    """Two pids in a 1-share group together get ~1/4 vs a 3-share pid."""
    a, b, c = (host.spawn() for _ in range(3))
    alps = HostAlps(
        [PidGroupSubject(0, 1, [a, b]), PidGroupSubject(1, 3, [c])],
        quantum_s=0.05,
        host=host,
    )
    report = alps.run(20.0)
    by_sid = report.consumed_by_sid
    assert by_sid[1] / (by_sid[0] + by_sid[1]) == pytest.approx(0.75, abs=0.03)
    # The group's two members split its allocation between them.
    assert report.consumed_us[a] == pytest.approx(report.consumed_us[b], rel=0.1)
    assert not host.stopped


def test_user_subject_runs_live_unchanged(host):
    """UserSubject enumerates its uid through the host's process table."""
    pids = [host.spawn(uid=uid) for uid in (100, 100, 200)]
    report = HostAlps(
        [UserSubject(sid=0, share=1, uid=100), UserSubject(sid=1, share=1, uid=200)],
        quantum_s=0.05,
        host=host,
    ).run(10.0)
    assert set(report.consumed_us) == set(pids)
    by_sid = report.consumed_by_sid
    assert by_sid[0] / (by_sid[0] + by_sid[1]) == pytest.approx(0.5, abs=0.05)


def test_membership_refresh_adopts_new_pid(host):
    a, c = host.spawn(), host.spawn()
    late: list[int] = []
    host.at(sec(1), lambda: late.append(host.spawn()))
    alps = HostAlps(
        [
            PidGroupSubject(0, 1, [a], members=lambda: [a] + late),
            PidGroupSubject(1, 1, [c]),
        ],
        quantum_s=0.05,
        refresh_s=0.3,
        host=host,
    )
    report = alps.run(3.0)
    # The adopted pid is measured, and accounted against group 0.
    (new,) = late
    assert report.consumed_us[new] > 0
    assert report.consumed_by_sid[0] == pytest.approx(
        report.consumed_us[a] + report.consumed_us[new], rel=0.1
    )


def test_newcomer_of_suspended_group_is_stopped_at_discovery(host):
    a, c = host.spawn(), host.spawn()
    members = [a]
    alps = HostAlps(
        [
            PidGroupSubject(0, 1, [a], members=lambda: list(members)),
            PidGroupSubject(1, 3, [c]),
        ],
        quantum_s=0.05,
        host=host,
    )
    state = alps.core.subjects[0]
    for _ in range(100):
        host.sleep(ms(50))
        alps._one_quantum()
        if not state.eligible:
            break
    assert not state.eligible and a in host.stopped
    new = host.spawn()
    members.append(new)
    alps._refresh_principals()
    assert new in host.stopped and alps.step.last_read[new] == 0
    # It resumes with its group.
    while not state.eligible:
        host.sleep(ms(50))
        alps._one_quantum()
    assert not {a, new} & host.stopped


def test_empty_principal_does_not_hold_the_cycle_open(host):
    """Both pids of a 3-share group exit: the 1-share spinner, now the
    only runnable process, must keep getting CPU and cycles must keep
    completing.  An empty principal measured ``(0, blocked=False)``
    stays eligible with a positive allowance and wedges the spinner
    SIGSTOPped for good."""
    a, b, c = (host.spawn() for _ in range(3))
    host.at(sec(2), lambda: (host.exit(a), host.exit(b)))
    alps = HostAlps(
        [PidGroupSubject(0, 3, [a, b]), PidGroupSubject(1, 1, [c])],
        quantum_s=0.05,
        host=host,
    )
    at_empty = []  # (cycles, spinner CPU) once the refresh emptied the group
    host.at(
        sec(3),
        lambda: at_empty.append((alps.core.cycles_completed, host.usage(c))),
    )
    report = alps.run(12.0)
    cycles, cpu_us = at_empty[0]
    assert report.cycles - cycles >= 20
    assert host.usage(c) - cpu_us >= sec(1)
    # Stopped for a fraction of a cycle at a time, never for good.
    assert host.longest_stop(c, since=sec(3)) <= ms(500)


def test_a_zombie_is_dead(host):
    """A pid that exits lingers in the process table as a zombie until
    it is reaped; the host port counts it dead.  Read as a live,
    runnable member with zero CPU instead, it stays in the core and
    holds the cycle open: the survivor sat SIGSTOPped ~3.95 of 4 s."""
    a, b = host.spawn(), host.spawn()
    host.at(sec(1), lambda: host.exit(a))
    alps = HostAlps({a: 1, b: 1}, quantum_s=0.05, host=host)
    in_core = []
    host.at(sec(1) + ms(200), lambda: in_core.append(set(alps.core.subjects)))
    alps.run(5.0)
    assert host.stat(a)[1] == "Z"  # never reaped
    assert in_core == [{b}]
    assert host.longest_stop(b, since=sec(1)) <= ms(100)
    assert host.usage(b) >= sec(3.5)


def test_consumed_by_sid_keeps_an_exited_members_cpu(host):
    a, b, c = (host.spawn() for _ in range(3))
    host.at(sec(3), lambda: host.exit(b))
    alps = HostAlps(
        [PidGroupSubject(0, 1, [a, b]), PidGroupSubject(1, 1, [c])],
        quantum_s=0.05,
        host=host,
    )
    report = alps.run(6.0)
    dead = report.consumed_us[b]
    assert dead > 0
    # Summing over final membership ({a}) would lose the dead member.
    assert report.consumed_by_sid[0] == pytest.approx(
        report.consumed_us[a] + dead, abs=0.1 * 1_000_000
    )
    assert report.consumed_by_sid[0] > report.consumed_us[a] + dead / 2


def test_eperm_pid_leaves_its_group_but_the_group_stays(host):
    a, b, c = (host.spawn() for _ in range(3))
    alps = HostAlps(
        [PidGroupSubject(0, 1, [a, b]), PidGroupSubject(1, 1, [c])],
        quantum_s=0.05,
        host=host,
    )
    real_kill = host.kill

    def deny_b(pid, signo):
        if pid == b:
            raise PermissionError(pid)
        real_kill(pid, signo)

    host.kill = deny_b
    alps.run(3.0)
    assert alps.uncontrollable == {b}
    assert 0 in alps.core.subjects
    assert alps.step.pids_of(alps.policy.members[0]) == [a]


def test_controller_and_its_ancestors_are_never_members(host):
    """The controller runs as the scheduled user: stopping its own pid
    or its shell would leave nothing to send the SIGCONT."""
    shell, me = host.spawn(uid=100, sleeping=True), host.spawn(uid=100, sleeping=True)
    host.controller = [me, shell]
    a = host.spawn(uid=100)
    c = host.spawn(uid=200)
    report = HostAlps(
        [
            UserSubject(sid=0, share=1, uid=100),
            UserSubject(sid=1, share=3, uid=200),
            PidGroupSubject(sid=2, share=1, pids=[me]),
        ],
        quantum_s=0.05,
        host=host,
    ).run(5.0)
    assert not [s for s in host.sent if s[1] in (me, shell)]
    assert set(report.consumed_us) == {a, c}
    assert any(p == a and signo == signal.SIGSTOP for _, p, signo in host.sent)


def test_a_job_someone_else_stopped_stays_stopped(host):
    """A user's ^Z'd job is neither resumed nor counted as runnable."""
    a, job, c = (host.spawn(uid=uid) for uid in (100, 100, 200))
    host.kernel.kill(job, SIGSTOP)  # the user's ^Z, not the controller's
    report = HostAlps(
        [UserSubject(sid=0, share=1, uid=100), UserSubject(sid=1, share=3, uid=200)],
        quantum_s=0.05,
        host=host,
    ).run(10.0)
    assert not [s for s in host.sent if s[1] == job]
    assert host.stopped == {job}  # everything the controller stopped resumed
    by_sid = report.consumed_by_sid
    assert by_sid[1] / (by_sid[0] + by_sid[1]) == pytest.approx(0.75, abs=0.05)


def test_dead_member_leaves_its_group_in_the_same_quantum(host):
    a, b, c = (host.spawn() for _ in range(3))
    alps = HostAlps(
        [PidGroupSubject(0, 1, [a, b]), PidGroupSubject(1, 1, [c])],
        quantum_s=0.05,
        refresh_s=100.0,
        host=host,
    )
    host.sleep(ms(50))
    alps._one_quantum()
    host.exit(b)
    for _ in range(10):
        host.sleep(ms(50))
        alps._one_quantum()
    # No periodic refresh ran: the failed read itself dropped the pid.
    assert alps.policy.members[0].pids(alps.view) == [a]


@pytest.mark.hostos
def test_real_spinner_groups_smoke():
    """One real-pid run: two spinner groups, every member measured and
    none left stopped."""
    procs = [spawn_spinner() for _ in range(3)]
    pids = [p.pid for p in procs]
    try:
        alps = HostAlps(
            [PidGroupSubject(0, 1, pids[:2]), PidGroupSubject(1, 3, pids[2:])],
            quantum_s=0.05,
        )
        report = alps.run(1.0)
        assert set(report.consumed_by_sid) == {0, 1}
        assert sum(report.consumed_by_sid.values()) > 0
        assert all(procfs.proc_state(pid) != "T" for pid in pids)
    finally:
        for p in procs:
            p.kill()
            p.wait()
