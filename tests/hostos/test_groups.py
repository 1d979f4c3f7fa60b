"""Multi-process subjects on the host driver (the paper's Section 5).

All but the last test run ``HostAlps`` on :class:`FakeHost` — procfs,
``os.kill`` and the controller's clock are scripted — so they touch no
real process, never sleep, and run in the default suite.
"""

import signal

import pytest

from repro.alps.subjects import PidGroupSubject, UserSubject
from repro.errors import HostOSError
from repro.hostos import HostAlps, procfs
from repro.hostos.spawn import spawn_spinner
from tests.hostos.fakehost import FakeHost


@pytest.fixture
def host(monkeypatch):
    return FakeHost(monkeypatch)


def test_config_validation():
    with pytest.raises(HostOSError):
        HostAlps([PidGroupSubject(0, 1, []), PidGroupSubject(0, 2, [])])
    with pytest.raises(HostOSError):
        HostAlps([PidGroupSubject(0, 1, [])], quantum_s=0)
    with pytest.raises(HostOSError):
        HostAlps([PidGroupSubject(0, 1, [])], refresh_s=0)


def test_groups_share_one_allocation(host):
    """Two pids in a 1-share group together get ~1/4 vs a 3-share pid."""
    for pid in (11, 12, 21):
        host.spawn(pid)
    alps = HostAlps(
        [PidGroupSubject(0, 1, [11, 12]), PidGroupSubject(1, 3, [21])],
        quantum_s=0.05,
    )
    report = alps.run(20.0)
    by_sid = report.consumed_by_sid
    assert by_sid[1] / (by_sid[0] + by_sid[1]) == pytest.approx(0.75, abs=0.03)
    # The group's two members split its allocation between them.
    assert report.consumed_us[11] == pytest.approx(report.consumed_us[12], rel=0.1)
    assert not host.stopped


def test_user_subject_runs_live_unchanged(host):
    """UserSubject enumerates its uid through the /proc view."""
    for pid, uid in ((11, 100), (12, 100), (21, 200)):
        host.spawn(pid, uid=uid)
    report = HostAlps(
        [UserSubject(sid=0, share=1, uid=100), UserSubject(sid=1, share=1, uid=200)],
        quantum_s=0.05,
    ).run(10.0)
    assert set(report.consumed_us) == {11, 12, 21}
    by_sid = report.consumed_by_sid
    assert by_sid[0] / (by_sid[0] + by_sid[1]) == pytest.approx(0.5, abs=0.05)


def test_membership_refresh_adopts_new_pid(host):
    host.spawn(11)
    host.spawn(21)
    late: list[int] = []
    host.at(101.0, lambda: late.append(host.spawn(13)))
    alps = HostAlps(
        [
            PidGroupSubject(0, 1, [11], members=lambda: [11] + late),
            PidGroupSubject(1, 1, [21]),
        ],
        quantum_s=0.05,
        refresh_s=0.3,
    )
    report = alps.run(3.0)
    # The adopted pid is measured, and accounted against group 0.
    assert report.consumed_us[13] > 0
    assert report.consumed_by_sid[0] == pytest.approx(
        report.consumed_us[11] + report.consumed_us[13], rel=0.1
    )


def test_newcomer_of_suspended_group_is_stopped_at_discovery(host):
    for pid in (11, 21):
        host.spawn(pid)
    members = [11]
    alps = HostAlps(
        [
            PidGroupSubject(0, 1, [11], members=lambda: list(members)),
            PidGroupSubject(1, 3, [21]),
        ],
        quantum_s=0.05,
    )
    state = alps.core.subjects[0]
    for _ in range(100):
        host.sleep(0.05)
        alps._one_quantum()
        if not state.eligible:
            break
    assert not state.eligible and 11 in host.stopped
    members.append(host.spawn(12))
    alps._refresh_principals()
    assert 12 in host.stopped and alps._last_read[12] == 0
    # It resumes with its group.
    while not state.eligible:
        host.sleep(0.05)
        alps._one_quantum()
    assert not {11, 12} & host.stopped


def test_empty_principal_does_not_hold_the_cycle_open(host):
    """Both pids of a 3-share group exit: the 1-share spinner, now the
    only runnable process, must keep getting CPU and cycles must keep
    completing.  An empty principal measured ``(0, blocked=False)``
    stays eligible with a positive allowance and wedges the spinner
    SIGSTOPped for good."""
    for pid in (11, 12, 21):
        host.spawn(pid)
    host.at(102.0, lambda: (host.exit(11), host.exit(12)))
    alps = HostAlps(
        [PidGroupSubject(0, 3, [11, 12]), PidGroupSubject(1, 1, [21])],
        quantum_s=0.05,
    )
    at_empty = []  # (cycles, spinner CPU) once the refresh emptied the group
    host.at(
        103.0,
        lambda: at_empty.append((alps.core.cycles_completed, host.usage[21])),
    )
    report = alps.run(12.0)
    cycles, cpu_us = at_empty[0]
    assert report.cycles - cycles >= 20
    assert host.usage[21] - cpu_us >= 1_000_000
    # Stopped for a fraction of a cycle at a time, never for good.
    assert host.longest_stop(21, since=103.0) <= 0.5


def test_consumed_by_sid_keeps_an_exited_members_cpu(host):
    for pid in (11, 12, 21):
        host.spawn(pid)
    host.at(103.0, lambda: host.exit(12))
    alps = HostAlps(
        [PidGroupSubject(0, 1, [11, 12]), PidGroupSubject(1, 1, [21])],
        quantum_s=0.05,
    )
    report = alps.run(6.0)
    dead = report.consumed_us[12]
    assert dead > 0
    # Summing over final membership ({11}) would lose the dead member.
    assert report.consumed_by_sid[0] == pytest.approx(
        report.consumed_us[11] + dead, abs=0.1 * 1_000_000
    )
    assert report.consumed_by_sid[0] > report.consumed_us[11] + dead / 2


def test_eperm_pid_leaves_its_group_but_the_group_stays(host, monkeypatch):
    for pid in (11, 12, 21):
        host.spawn(pid)
    alps = HostAlps(
        [PidGroupSubject(0, 1, [11, 12]), PidGroupSubject(1, 1, [21])],
        quantum_s=0.05,
    )
    real_kill = host.kill

    def deny_12(pid, signo):
        if pid == 12:
            raise PermissionError(pid)
        real_kill(pid, signo)

    monkeypatch.setattr("os.kill", deny_12)
    alps.run(3.0)
    assert alps.uncontrollable == {12}
    assert 0 in alps.core.subjects
    assert alps._pids_of(alps.policy.members[0]) == [11]


def test_controller_and_its_ancestors_are_never_members(host):
    """The controller runs as the scheduled user: stopping its own pid
    or its shell would leave nothing to send the SIGCONT."""
    host.controller = [50, 40]  # the controller, then its shell
    for pid in (50, 40):
        host.spawn(pid, uid=100, sleeping=True)
    host.spawn(11, uid=100)
    host.spawn(21, uid=200)
    report = HostAlps(
        [
            UserSubject(sid=0, share=1, uid=100),
            UserSubject(sid=1, share=3, uid=200),
            PidGroupSubject(sid=2, share=1, pids=[50]),
        ],
        quantum_s=0.05,
    ).run(5.0)
    assert not [s for s in host.sent if s[1] in (50, 40)]
    assert set(report.consumed_us) == {11, 21}
    assert any(p == 11 and signo == signal.SIGSTOP for _, p, signo in host.sent)


def test_a_job_someone_else_stopped_stays_stopped(host):
    """A user's ^Z'd job is neither resumed nor counted as runnable."""
    for pid, uid in ((11, 100), (13, 100), (21, 200)):
        host.spawn(pid, uid=uid)
    host.stopped.add(13)
    report = HostAlps(
        [UserSubject(sid=0, share=1, uid=100), UserSubject(sid=1, share=3, uid=200)],
        quantum_s=0.05,
    ).run(10.0)
    assert 13 in host.stopped
    assert not [s for s in host.sent if s[1] == 13]
    assert host.stopped == {13}  # everything the controller stopped resumed
    by_sid = report.consumed_by_sid
    assert by_sid[1] / (by_sid[0] + by_sid[1]) == pytest.approx(0.75, abs=0.05)


def test_dead_member_leaves_its_group_in_the_same_quantum(host):
    for pid in (11, 12, 21):
        host.spawn(pid)
    alps = HostAlps(
        [PidGroupSubject(0, 1, [11, 12]), PidGroupSubject(1, 1, [21])],
        quantum_s=0.05,
        refresh_s=100.0,
    )
    host.sleep(0.05)
    alps._one_quantum()
    host.exit(12)
    for _ in range(10):
        host.sleep(0.05)
        alps._one_quantum()
    # No periodic refresh ran: the failed read itself dropped the pid.
    assert alps.policy.members[0].pids(alps.view) == [11]


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

