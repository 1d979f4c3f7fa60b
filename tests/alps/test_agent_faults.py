"""Agent robustness against subject death, lost signals, stalls, and
crash-with-restart — driven by hand against the scriptable FakeKapi.

Complements tests/faults/ (full simulations): here each recovery path
is stepped through activation by activation so the exact bookkeeping
is pinned.
"""

from __future__ import annotations

from repro.alps.agent import AlpsAgent
from repro.alps.config import AlpsConfig
from repro.alps.state import Eligibility
from repro.alps.subjects import ProcessSubject, UserSubject
from repro.kernel.actions import Compute, Sleep
from repro.kernel.signals import SIGCONT, SIGSTOP
from tests.alps.test_agent_unit import FakeKapi, Q, make_agent


def _walk_to_second_wake(agent, kapi):
    """INIT → wake1 → apply1 (everyone becomes eligible) → wake2.

    After this the agent's next activation runs the quantum step over
    the due list wake 2 selected, which this returns with every pid.
    """
    selected = []
    due = agent.step.due

    def recording_due():
        got = due()
        selected.append(got[0])
        return got

    agent.step.due = recording_due
    agent.next_action(None, kapi)  # init
    kapi.now = Q
    agent.next_action(None, kapi)  # wake 1 (nobody due yet)
    kapi.now += 1
    agent.next_action(None, kapi)  # apply 1
    kapi.now = 2 * Q
    agent.next_action(None, kapi)  # wake 2: all pids due
    return selected[-1]


def test_death_between_begin_and_complete_quantum():
    """A pid dying after measurement selection but before the reads must
    not raise, not charge, and leave no stale per-pid state."""
    agent, kapi = make_agent((1, 1))
    due = _walk_to_second_wake(agent, kapi)
    assert any(100 in pids for _, pids in due)
    kapi.alive[100] = False  # dies mid-measurement
    kapi.now += 20
    act = agent.next_action(None, kapi)  # apply — must not raise
    assert isinstance(act, (Sleep, Compute))
    assert 100 not in agent.step.last_read
    assert 100 not in agent.step.stopped
    # The subject itself is reaped at the next wake.
    kapi.now = 3 * Q
    agent.next_action(None, kapi)
    assert 0 not in agent.core.subjects
    assert 1 in agent.core.subjects


def test_last_process_of_last_subject_dying():
    """Even the *final* subject's death must be survivable (the core
    goes empty; no KeyError, no phantom cycles)."""
    agent, kapi = make_agent((1,))
    agent.next_action(None, kapi)  # init
    kapi.now = Q
    agent.next_action(None, kapi)  # wake 1
    kapi.now += 1
    agent.next_action(None, kapi)  # apply 1
    kapi.alive[100] = False
    kapi.now = 2 * Q
    act = agent.next_action(None, kapi)  # wake: reap the only subject
    assert isinstance(act, Compute)
    assert agent.core.subjects == {}
    assert agent.subjects == {}
    kapi.now += 10
    act = agent.next_action(None, kapi)  # apply on the empty core
    assert isinstance(act, Sleep)


def test_all_subjects_dead_agent_idles_cleanly():
    agent, kapi = make_agent((1, 2))
    agent.next_action(None, kapi)  # init
    kapi.now = Q
    agent.next_action(None, kapi)
    kapi.now += 1
    agent.next_action(None, kapi)
    kapi.alive[100] = False
    kapi.alive[101] = False
    kapi.now = 2 * Q
    agent.next_action(None, kapi)  # wake reaps both
    assert agent.subjects == {}
    cycles_before = len(agent.cycle_log)
    for k in range(3, 7):
        kapi.now += 10
        act = agent.next_action(None, kapi)  # apply
        assert isinstance(act, Sleep)
        assert kapi.now + act.duration_us == k * Q  # keeps its beat
        kapi.now = k * Q
        act = agent.next_action(None, kapi)  # wake
        assert isinstance(act, Compute)
    # An empty core must not log phantom cycles while idling.
    assert len(agent.cycle_log) == cycles_before
    assert agent.signals_sent == 0


def test_reap_cleans_all_per_pid_maps():
    agent, kapi = make_agent((1, 1))
    _walk_to_second_wake(agent, kapi)
    assert 100 in agent.step.last_read
    kapi.now += 20
    agent.next_action(None, kapi)  # apply
    agent.step.stopped.add(100)  # as if previously suspended
    kapi.alive[100] = False
    kapi.now = 3 * Q
    agent.next_action(None, kapi)  # wake → reap
    assert 0 not in agent.subjects
    assert 100 not in agent.step.last_read
    assert 100 not in agent.step.stopped


def test_lost_sigstop_is_resent_within_budget():
    class DroppingKapi(FakeKapi):
        """Loses every SIGSTOP in transit (delivery never observed)."""

        def kill(self, pid, signo):
            self.kills.append((pid, signo))
            if signo == SIGCONT:
                self.stopped.discard(pid)

    agent = AlpsAgent(
        [ProcessSubject(sid=0, share=1, pid=100),
         ProcessSubject(sid=1, share=5, pid=101)],
        AlpsConfig(quantum_us=Q, signal_retry_budget=1),
    )
    kapi = DroppingKapi()
    agent.next_action(None, kapi)  # init
    kapi.now = Q
    agent.next_action(None, kapi)
    kapi.now += 1
    agent.next_action(None, kapi)
    kapi.now = 2 * Q
    agent.next_action(None, kapi)
    kapi.rusage[100] = Q  # subject 0 exhausted its allowance
    kapi.now = 2 * Q + 60
    agent.next_action(None, kapi)  # apply → queues SIGSTOP
    kapi.now += 1
    agent.next_action(None, kapi)  # deliver: send, verify, re-send
    assert kapi.kills.count((100, SIGSTOP)) == 2  # original + 1 retry
    assert agent.signal_retries == 1


def test_stall_rebaselines_instead_of_catchup_burst():
    agent, kapi = make_agent((1, 1))
    agent.next_action(None, kapi)  # init: sleeps toward boundary Q
    # The agent is descheduled for 5 quanta; meanwhile pid 100 burns CPU.
    kapi.rusage[100] = 5 * Q
    kapi.now = 6 * Q
    agent.next_action(None, kapi)  # wake
    assert agent.missed_boundaries == 5
    assert agent.rebaselines == 1  # 5 > default tolerance of 2
    # The outage consumption was forgiven, not charged as one burst.
    assert agent.step.last_read[100] == 5 * Q
    kapi.now += 20
    agent.next_action(None, kapi)  # apply
    assert agent.signals_sent == 0  # no catch-up suspension storm


def test_small_delays_within_tolerance_do_not_rebaseline():
    agent, kapi = make_agent((1, 1))
    agent.next_action(None, kapi)  # init
    kapi.now = Q + Q // 2  # woke half a quantum late: 0 full boundaries
    agent.next_action(None, kapi)
    assert agent.missed_boundaries == 0
    assert agent.rebaselines == 0


def test_restart_reconciles_stop_set_from_kernel_truth():
    agent, kapi = make_agent((1, 1))
    agent.next_action(None, kapi)  # init
    kapi.stopped.add(101)  # wedged while the agent was down
    agent.restart()
    assert agent.restarts == 1
    assert agent.step.last_read == {} and agent.step.stopped == set()
    kapi.now = Q
    act = agent.next_action(None, kapi)  # reconcile pass
    assert isinstance(act, Compute)
    kapi.now += 10
    act = agent.next_action(None, kapi)  # deliver the healing SIGCONT
    assert (101, SIGCONT) in kapi.kills
    assert 101 not in kapi.stopped
    assert isinstance(act, Sleep)


def test_shutdown_resumes_by_kernel_truth():
    agent, kapi = make_agent((1, 1))
    agent.next_action(None, kapi)  # init
    kapi.stopped.add(100)  # stopped with no agent bookkeeping
    resumed = agent.shutdown(kapi)
    assert resumed == 1
    assert (100, SIGCONT) in kapi.kills
    assert kapi.stopped == set()
    assert agent.step.stopped == set()


def test_wedge_healing_resumes_eligible_stopped_pid():
    agent, kapi = make_agent((1, 1))
    _walk_to_second_wake(agent, kapi)
    # Both subjects are eligible, yet pid 100 sits stopped (a SIGCONT
    # was lost, or a delayed SIGSTOP landed late).
    kapi.stopped.add(100)
    kapi.now += 20
    act = agent.next_action(None, kapi)  # apply: healing queues SIGCONT
    assert isinstance(act, Compute)
    kapi.now += act.duration_us
    agent.next_action(None, kapi)  # deliver
    assert (100, SIGCONT) in kapi.kills
    assert 100 not in kapi.stopped
    assert agent.heals == 1


def test_discovery_stop_is_charged_signal_cost():
    """A pid discovered under a suspended principal is stopped at
    discovery — and that kill(2) must show up in the cost accounting."""

    class UidKapi(FakeKapi):
        def __init__(self):
            super().__init__()
            self.uid_pids: dict[int, list[int]] = {}

        def pids_of_uid(self, uid):
            return list(self.uid_pids.get(uid, []))

    cfg = AlpsConfig(quantum_us=Q)
    agent = AlpsAgent(
        [UserSubject(sid=0, share=1, uid=7),
         ProcessSubject(sid=1, share=1, pid=200)],
        cfg,
    )
    kapi = UidKapi()
    kapi.uid_pids[7] = [300]
    agent.next_action(None, kapi)  # init enumerates uid 7
    # Principal 0 is currently suspended; a new process appears.
    agent.core.subjects[0].state = Eligibility.INELIGIBLE
    kapi.uid_pids[7] = [300, 301]
    cost = agent._refresh_principals(kapi)
    assert (301, SIGSTOP) in kapi.kills
    assert 301 in agent.step.stopped
    assert cost >= cfg.costs.principal_refresh_us + cfg.costs.signal_us


def test_wedge_healing_covers_a_pid_left_unread():
    """A pid whose read failed through every retry was never seen
    running, so healing still inspects it: wedged, it is resumed."""
    from repro.errors import TransientReadError

    class FlakyKapi(FakeKapi):
        def getrusage(self, pid):
            if pid == 100:
                raise TransientReadError(pid)
            return super().getrusage(pid)

    agent, kapi = make_agent((1, 1))
    _walk_to_second_wake(agent, kapi)
    flaky = FlakyKapi()
    flaky.__dict__.update(kapi.__dict__)
    flaky.stopped.add(100)
    flaky.now += 20
    act = agent.next_action(None, flaky)  # apply: 100 unread, yet healed
    assert agent.read_failures == 1
    assert isinstance(act, Compute)
    flaky.now += act.duration_us
    agent.next_action(None, flaky)  # deliver
    assert (100, SIGCONT) in flaky.kills
    assert agent.heals == 1


def _step_until_a_cycle_completes(agent, kapi, limit=200):
    """Drive ``agent`` (each runnable pid gains what the clock advances)
    until its cycle log grows; returns the clock of that activation."""
    cycles = len(agent.cycle_log)
    for _ in range(limit):
        act = agent.next_action(None, kapi)
        if len(agent.cycle_log) > cycles:
            return kapi.now
        elapsed = max(1, act.duration_us)
        kapi.now += elapsed
        for pid in kapi.rusage:
            if pid not in kapi.stopped:
                kapi.rusage[pid] += elapsed
    raise AssertionError("no cycle completed")


def test_first_activation_as_journaled_restart_binds_the_clock():
    """An agent restarted from a journal before it ever ran INIT stamps
    its cycle records with the kernel clock, as one that ran INIT does."""
    from repro.resilience.journal import MemoryJournal

    journal = MemoryJournal()
    first, kapi = make_agent((1, 2))
    first.attach_journal(journal)
    kapi.rusage = {100: 0, 101: 0}
    _step_until_a_cycle_completes(first, kapi)

    fresh, _ = make_agent((1, 2))
    fresh.attach_journal(journal)
    fresh.restart()  # before INIT: the first activation is the recovery
    assert fresh.last_restart_journaled
    completed_at = _step_until_a_cycle_completes(fresh, kapi)
    assert fresh.journal_recoveries == 1
    assert fresh.cycle_log[-1].end_time == completed_at > 0
