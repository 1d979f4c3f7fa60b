"""ALPS agent state machine in isolation (fake kernel API).

Drives the agent's `next_action` by hand to pin down the phase
sequence, the cost charging, signal batching, and quantum-boundary
arithmetic — without a simulation in the loop.
"""

from __future__ import annotations

import math

import pytest

from repro.alps.agent import AlpsAgent
from repro.alps.config import AlpsConfig
from repro.alps.costs import CostModel
from repro.alps.subjects import ProcessSubject
from repro.errors import NoSuchProcessError
from repro.kernel.actions import Compute, Sleep
from repro.kernel.signals import SIGCONT, SIGSTOP

Q = 10_000


class FakeKapi:
    """Scriptable stand-in for the kernel API."""

    def __init__(self) -> None:
        self.now = 0
        self.rusage: dict[int, int] = {}
        self.blocked: dict[int, bool] = {}
        self.alive: dict[int, bool] = {}
        self.kills: list[tuple[int, int]] = []
        self.stopped: set[int] = set()

    def getrusage(self, pid: int) -> int:
        if not self.alive.get(pid, True):
            raise NoSuchProcessError(pid)
        return self.rusage.get(pid, 0)

    def is_blocked(self, pid: int) -> bool:
        return self.blocked.get(pid, False)

    def read_progress(self, pid: int) -> tuple[int, bool, bool]:
        # The one-read triple, built from the three single reads so a
        # subclass overriding any of them is seen through it too.
        return self.getrusage(pid), self.is_blocked(pid), self.is_stopped(pid)

    def is_stopped(self, pid: int) -> bool:
        if not self.alive.get(pid, True):
            raise NoSuchProcessError(pid)
        return pid in self.stopped

    def kill(self, pid: int, signo: int) -> None:
        if not self.alive.get(pid, True):
            raise NoSuchProcessError(pid)
        self.kills.append((pid, signo))
        if signo == SIGSTOP:
            self.stopped.add(pid)
        elif signo == SIGCONT:
            self.stopped.discard(pid)

    def pid_exists(self, pid: int) -> bool:
        return self.alive.get(pid, True)

    def exit_count(self) -> int:
        # Derived from the scripted deaths: monotone as long as tests
        # never resurrect a pid (they don't — pids are not recycled).
        return sum(1 for alive in self.alive.values() if not alive)

    def pids_of_uid(self, uid: int) -> list[int]:
        return []


def make_agent(shares=(1, 1)):
    subjects = [
        ProcessSubject(sid=i, share=s, pid=100 + i) for i, s in enumerate(shares)
    ]
    return AlpsAgent(subjects, AlpsConfig(quantum_us=Q)), FakeKapi()


def test_phase_sequence_without_signals():
    agent, kapi = make_agent()
    # INIT: sleeps until the first boundary.
    act = agent.next_action(None, kapi)
    assert isinstance(act, Sleep) and act.duration_us == Q
    # Wake at the boundary: a Compute for timer + measurements.
    kapi.now = Q
    act = agent.next_action(None, kapi)
    assert isinstance(act, Compute)
    # First invocation: nobody eligible yet, so the compute is just the
    # timer-event cost (integer-accumulated).
    assert act.duration_us in (9, 10)
    # Apply: first invocation resumes everyone, but nothing was actually
    # stopped, so no signals -> straight back to sleep.
    kapi.now = Q + act.duration_us
    act = agent.next_action(None, kapi)
    assert isinstance(act, Sleep)
    assert kapi.now + act.duration_us == 2 * Q


def test_measurement_cost_scales_with_due_pids():
    agent, kapi = make_agent((1, 1, 1))
    agent.next_action(None, kapi)  # init
    kapi.now = Q
    agent.next_action(None, kapi)  # wake 1 (none due)
    kapi.now += 5
    agent.next_action(None, kapi)  # apply -> all eligible now
    kapi.now = 2 * Q
    act = agent.next_action(None, kapi)  # wake 2: 3 pids due
    expected = CostModel().quantum_cost(3)
    assert act.duration_us == pytest.approx(expected, abs=1)


def test_exhausted_subject_gets_sigstop_and_signal_cost():
    agent, kapi = make_agent((1, 5))
    agent.next_action(None, kapi)  # init
    kapi.now = Q
    agent.next_action(None, kapi)  # wake 1
    kapi.now += 1
    agent.next_action(None, kapi)  # apply: both become eligible
    kapi.now = 2 * Q
    agent.next_action(None, kapi)  # wake 2 (measure both)
    # Subject 0 consumed a full quantum since the last read.
    kapi.rusage[100] = Q
    kapi.now = 2 * Q + 60
    act = agent.next_action(None, kapi)  # apply
    assert isinstance(act, Compute)  # signal-delivery cost burst
    kapi.now += act.duration_us
    act = agent.next_action(None, kapi)  # deliver
    assert kapi.kills == [(100, SIGSTOP)]
    assert isinstance(act, Sleep)
    assert agent.signals_sent == 1


def test_resume_sends_sigcont_only_if_actually_stopped():
    agent, kapi = make_agent((1, 5))
    # Walk until the stop is delivered (as above).
    agent.next_action(None, kapi)
    kapi.now = Q
    agent.next_action(None, kapi)
    kapi.now += 1
    agent.next_action(None, kapi)
    kapi.now = 2 * Q
    agent.next_action(None, kapi)
    kapi.rusage[100] = Q
    kapi.now = 2 * Q + 60
    agent.next_action(None, kapi)
    kapi.now += 1
    agent.next_action(None, kapi)  # SIGSTOP delivered
    kapi.kills.clear()
    # Subject 1's measurement was postponed ~5 quanta; keep stepping
    # boundaries (its consumption reaching 5 Q ends the cycle, which
    # re-credits and resumes subject 0).
    kapi.rusage[101] = 5 * Q
    for k in range(3, 10):
        kapi.now = k * Q
        agent.next_action(None, kapi)  # wake
        kapi.now += 50
        act = agent.next_action(None, kapi)  # apply
        if isinstance(act, Compute):
            kapi.now += act.duration_us
            agent.next_action(None, kapi)  # deliver
        if kapi.kills:
            break
    assert (100, SIGCONT) in kapi.kills


def test_boundary_skipping_when_delayed():
    agent, kapi = make_agent()
    agent.next_action(None, kapi)  # init, epoch=0
    kapi.now = Q
    agent.next_action(None, kapi)  # wake
    # Work delayed for 3.5 quanta before completion.
    kapi.now = int(4.5 * Q)
    act = agent.next_action(None, kapi)  # apply
    assert isinstance(act, Sleep)
    assert kapi.now + act.duration_us == 5 * Q  # next future boundary


def test_dead_pid_measurement_is_dropped():
    agent, kapi = make_agent((1, 1))
    agent.next_action(None, kapi)
    kapi.now = Q
    agent.next_action(None, kapi)
    kapi.now += 1
    agent.next_action(None, kapi)  # both eligible
    kapi.alive[100] = False  # dies before next wake
    kapi.now = 2 * Q
    agent.next_action(None, kapi)  # wake: reap drops subject 0
    assert 0 not in agent.core.subjects
    kapi.now += 30
    act = agent.next_action(None, kapi)  # apply must not raise
    assert isinstance(act, (Sleep, Compute))


def test_invocation_and_read_counters():
    agent, kapi = make_agent((2, 2))
    agent.next_action(None, kapi)
    for k in range(1, 6):
        kapi.now = k * Q
        agent.next_action(None, kapi)  # wake
        kapi.now += 10
        act = agent.next_action(None, kapi)  # apply
        if isinstance(act, Compute):  # pending signals
            kapi.now += act.duration_us
            agent.next_action(None, kapi)
    assert agent.invocations == 5
    assert agent.reads >= 2
