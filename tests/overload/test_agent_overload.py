"""The simulated agent's overload plumbing: admission, slip, events."""

from __future__ import annotations

import pytest

from repro.alps.config import AlpsConfig
from repro.alps.subjects import ProcessSubject
from repro.obs import Observer
from repro.overload import OverloadConfig, OverloadGuard
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.spinner import spinner_behavior


def guarded_workload(shares, *, capacity=None, observer=None):
    guard = OverloadGuard(OverloadConfig(capacity=capacity))
    cw = build_controlled_workload(
        list(shares),
        AlpsConfig(quantum_us=ms(10)),
        seed=0,
        overload=guard,
        observer=observer,
    )
    return cw, guard


def submit_arrival(cw, sid, share=1):
    proc = cw.kernel.spawn(f"arrival-{sid}", spinner_behavior(), uid=900)
    subject = ProcessSubject(sid=sid, share=share, pid=proc.pid)
    return proc, cw.agent.submit_subject(subject, cw.kernel.kapi)


def test_timer_slip_is_zero_without_a_guard():
    cw = build_controlled_workload(
        [1, 2], AlpsConfig(quantum_us=ms(10)), seed=0
    )
    cw.engine.run_until(sec(1))
    assert cw.agent.timer_slip_us == 0


def test_unbounded_guard_admits_arrivals_immediately():
    cw, guard = guarded_workload([1, 2])
    cw.engine.run_until(sec(1))
    _, admitted = submit_arrival(cw, sid=100)
    assert admitted
    assert 100 in cw.agent.subjects
    assert guard.admission.depth == 0


def test_capacity_queues_arrivals_until_a_slot_frees():
    obs = Observer()
    cw, guard = guarded_workload([1, 2, 3], capacity=3, observer=obs)
    cw.engine.run_until(sec(1))
    # The initial group fills the capacity; the arrival has to wait.
    _, admitted = submit_arrival(cw, sid=100)
    assert not admitted
    assert guard.admission.depth == 1
    cw.engine.run_until(sec(2))
    assert 100 not in cw.agent.subjects  # still no room
    # A departure frees a slot: the liveness sweep reaps the dead
    # member and a later wake drains the queue, oldest first.
    victim = cw.workers[0]
    cw.kernel.kill(victim.pid, 9)
    cw.engine.run_until(sec(4))
    assert 100 in cw.agent.subjects
    assert guard.admission.depth == 0
    kinds = [ev.kind for ev in obs.events.tail(len(obs.events))]
    assert "overload.queued" in kinds
    assert "overload.admitted" in kinds


def test_queued_arrival_is_enforced_after_admission():
    """An admitted arrival joins the proportional split, not a side car."""
    cw, guard = guarded_workload([5, 5], capacity=2)
    cw.engine.run_until(sec(1))
    _, admitted = submit_arrival(cw, sid=100, share=5)
    assert not admitted
    cw.kernel.kill(cw.workers[0].pid, 9)
    cw.engine.run_until(sec(3))
    assert 100 in cw.agent.subjects
    before = cw.agent.cumulative_cpu_of(100)
    cw.engine.run_until(sec(8))
    gained = cw.agent.cumulative_cpu_of(100) - before
    # Equal shares with one peer: roughly half the CPU from then on.
    assert gained == pytest.approx(sec(5) / 2, rel=0.35)


def test_guarded_run_reports_slip_through_the_agent_property():
    cw, guard = guarded_workload([1, 2])
    cw.engine.run_until(sec(1))
    assert guard.slip.samples > 0
    assert cw.agent.timer_slip_us == int(
        guard.slip.last_quanta * cw.agent.cfg.quantum_us
    )


def test_dead_arrival_is_refused_without_a_guard():
    """A subject gone before admission does not join, guard or not."""
    cw = build_controlled_workload(
        [1, 2], AlpsConfig(quantum_us=ms(10)), seed=0
    )
    cw.engine.run_until(sec(1))
    proc = cw.kernel.spawn("doa", spinner_behavior(), uid=900)
    cw.kernel.kill(proc.pid, 9)
    subject = ProcessSubject(sid=100, share=1, pid=proc.pid)
    assert not cw.agent.submit_subject(subject, cw.kernel.kapi)
    assert 100 not in cw.agent.subjects
    assert 100 not in cw.agent.core.subjects
