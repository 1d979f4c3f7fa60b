"""FaultInjector behavior in full simulations.

Each fault class is driven to an observable end state: the simulation
must keep running, the agent must recover, and the injected schedule
must replay byte-identically for equal seeds.
"""

from __future__ import annotations

import pytest

from repro.alps.agent import spawn_alps
from repro.alps.config import AlpsConfig
from repro.alps.subjects import UserSubject
from repro.faults.injector import FaultInjector, FaultyKernelAPI
from repro.faults.plan import (
    AgentCrash,
    AgentStall,
    FaultPlan,
    ForkStorm,
    ProcessCrash,
    default_fault_plan,
)
from repro.kernel.kernel import Kernel
from repro.perf.differential import fingerprint_run
from repro.resilience.journal import MemoryJournal, WriteFaults
from repro.sim.engine import Engine
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.shares import ShareDistribution, workload_shares
from repro.workloads.spinner import spinner_behavior

CFG = AlpsConfig(quantum_us=ms(10))


def _run(plan, *, shares=(1, 2, 3), seed=3, until=sec(3)):
    cw = build_controlled_workload(list(shares), CFG, seed=seed, fault_plan=plan)
    cw.engine.run_until(until)
    return cw


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_same_seed_replays_trace_byte_identically():
    def trace(plan_seed):
        plan = FaultPlan(
            seed=plan_seed,
            crash_rate_per_sec=0.5,
            signal_drop_prob=0.2,
            signal_delay_prob=0.2,
            rusage_fail_prob=0.2,
            agent_stall_prob=0.1,
            agent_crashes=(AgentCrash(time_us=sec(1)),),
            horizon_us=sec(3),
        )
        return _run(plan).injector.trace_lines()

    first = trace(7)
    assert first == trace(7)
    assert len(first) > 0
    assert trace(8) != first


def test_plan_rng_is_independent_of_engine_seed():
    """The fault schedule comes from the *plan* seed; the workload seed
    must not silently reshuffle it (determinism contract)."""
    plan = default_fault_plan(0.2, seed=5, horizon_us=sec(3))
    kinds_a = [r.kind for r in _run(plan, seed=1).injector.trace]
    kinds_b = [r.kind for r in _run(plan, seed=2).injector.trace]
    # Timing differs (the simulations diverge), but both runs draw from
    # the same per-operation streams and inject the same fault classes.
    assert set(kinds_a) == set(kinds_b)


def test_arm_twice_rejected():
    engine = Engine(seed=0)
    kernel = Kernel(engine)
    inj = FaultInjector(FaultPlan(), engine, kernel)
    inj.arm([])
    try:
        inj.arm([])
    except RuntimeError:
        return
    raise AssertionError("second arm() must be rejected")


# ----------------------------------------------------------------------
# Process-population faults
# ----------------------------------------------------------------------
def test_scheduled_crash_kills_victim_and_agent_reaps():
    plan = FaultPlan(crashes=(ProcessCrash(time_us=sec(1), victim_index=0),))
    cw = _run(plan)
    assert cw.injector.crashes_injected == 1
    assert not cw.kernel.kapi.pid_exists(cw.workers[0].pid)
    assert 0 not in cw.agent.core.subjects  # reaped
    assert 1 in cw.agent.core.subjects  # survivors still scheduled
    assert any(r.kind == "crash" for r in cw.injector.trace)
    # Stale per-pid state is gone with the subject (no leak).
    assert cw.workers[0].pid not in cw.agent.step.last_read
    assert cw.workers[0].pid not in cw.agent.step.stopped


def test_poisson_crashes_eventually_empty_the_group():
    plan = FaultPlan(crash_rate_per_sec=20.0, horizon_us=sec(5))
    cw = _run(plan, until=sec(5))
    assert cw.injector.crashes_injected >= 1
    # However many died, the agent never raised and still answers.
    assert len(cw.agent.core.subjects) + cw.injector.crashes_injected >= 3


def test_fork_storm_discovered_by_principal_refresh():
    engine = Engine(seed=2)
    kernel = Kernel(engine)
    workers = [kernel.spawn(f"w{i}", spinner_behavior(), uid=7) for i in range(2)]
    others = [kernel.spawn("x", spinner_behavior(), uid=8)]
    subjects = [
        UserSubject(sid=0, share=1, uid=7),
        UserSubject(sid=1, share=1, uid=8),
    ]
    plan = FaultPlan(fork_storms=(ForkStorm(time_us=ms(500), uid=7, count=3),))
    injector = FaultInjector(plan, engine, kernel)
    injector.arm([w.pid for w in workers + others])
    _, agent = spawn_alps(kernel, subjects, CFG, injector=injector)
    engine.run_until(sec(3))  # default refresh period is 1 s
    assert injector.forks_spawned == 3
    assert any(r.kind == "forkstorm" for r in injector.trace)
    # The storm's processes joined the principal and are accounted.
    assert len(subjects[0].pids(kernel.kapi)) == 5


# ----------------------------------------------------------------------
# Signal faults
# ----------------------------------------------------------------------
def test_dropped_signals_are_retried_and_nobody_wedges():
    plan = FaultPlan(signal_drop_prob=1.0)
    cw = _run(plan)
    assert cw.injector.signals_dropped > 0
    assert cw.agent.signal_retries > 0
    cw.agent.shutdown(cw.kernel.kapi)
    for w in cw.workers:
        if cw.kernel.kapi.pid_exists(w.pid):
            assert not cw.kernel.is_stopped(w.pid)


def test_delayed_signals_arrive_and_run_completes():
    plan = FaultPlan(signal_delay_prob=1.0, signal_delay_us=ms(2))
    cw = _run(plan)
    assert cw.injector.signals_delayed > 0
    assert len(cw.agent.cycle_log) > 0
    cw.agent.shutdown(cw.kernel.kapi)
    for w in cw.workers:
        assert not cw.kernel.is_stopped(w.pid)


# ----------------------------------------------------------------------
# Read faults
# ----------------------------------------------------------------------
def test_transient_read_failures_are_retried_within_budget():
    plan = FaultPlan(rusage_fail_prob=1.0)
    cw = _run(plan, until=sec(1))
    assert cw.injector.reads_failed > 0
    assert cw.agent.read_retries > 0
    assert cw.agent.read_failures > 0  # budget exhausted under 100 % loss


def test_partial_read_failures_only_defer_accounting():
    """A skipped measurement must defer consumption, not lose it: total
    CPU charged over the run stays within one quantum of kernel truth."""
    plan = FaultPlan(seed=1, rusage_fail_prob=0.3)
    cw = _run(plan, shares=(1, 1), until=sec(3))
    assert cw.injector.reads_failed > 0
    for i, w in enumerate(cw.workers):
        charged = cw.agent.cumulative_cpu_of(i)
        truth = cw.kernel.getrusage(w.pid)
        assert charged <= truth
        assert truth - charged <= 2 * CFG.quantum_us


# ----------------------------------------------------------------------
# Agent faults
# ----------------------------------------------------------------------
def test_scheduled_stall_is_detected_and_rebaselined():
    plan = FaultPlan(agent_stalls=(AgentStall(time_us=sec(1), skipped_quanta=6),))
    cw = _run(plan)
    assert cw.injector.stalls_injected == 1
    assert cw.agent.missed_boundaries >= 6
    assert cw.agent.rebaselines >= 1  # 6 > default tolerance of 2


def test_agent_crash_restarts_and_reconciles():
    plan = FaultPlan(agent_crashes=(AgentCrash(time_us=sec(1), downtime_us=ms(50)),))
    cw = _run(plan)
    assert cw.injector.agent_crashes_injected == 1
    assert cw.agent.restarts == 1
    # Control resumed after the downtime: cycles complete post-crash.
    assert cw.agent.cycle_log.records[-1].end_time > sec(1) + ms(50)
    cw.agent.shutdown(cw.kernel.kapi)
    for w in cw.workers:
        assert not cw.kernel.is_stopped(w.pid)


def test_agent_crash_trace_records_downtime():
    plan = FaultPlan(agent_crashes=(AgentCrash(time_us=sec(1), downtime_us=ms(30)),))
    cw = _run(plan)
    lines = cw.injector.trace_lines()
    assert any("agent-crash downtime_us=30000" in line for line in lines)


# ----------------------------------------------------------------------
# Pass-throughs: a plan that cannot perturb a call or a write adds no layer
# ----------------------------------------------------------------------
#: Plans with faults of every kind except system-call ones.
NO_SYSCALL_FAULTS = (
    FaultPlan(),
    FaultPlan(crashes=(ProcessCrash(time_us=sec(1), victim_index=0),)),
    FaultPlan(
        agent_stalls=(AgentStall(time_us=sec(1)),),
        agent_stall_prob=0.05,
        agent_crashes=(AgentCrash(time_us=ms(1500)),),
    ),
    FaultPlan(journal_write_fail_prob=0.2, journal_torn_write_prob=0.1),
)


def _injector(plan):
    engine = Engine(seed=0)
    kernel = Kernel(engine)
    return FaultInjector(plan, engine, kernel), kernel.kapi


@pytest.mark.parametrize("plan", NO_SYSCALL_FAULTS)
def test_wrap_hands_out_the_raw_kapi_without_syscall_faults(plan):
    injector, kapi = _injector(plan)
    assert injector.wrap(kapi) is kapi


@pytest.mark.parametrize(
    "field", ("rusage_fail_prob", "signal_drop_prob", "signal_delay_prob")
)
def test_any_syscall_fault_probability_gets_the_proxy(field):
    injector, kapi = _injector(FaultPlan(**{field: 0.01}))
    assert isinstance(injector.wrap(kapi), FaultyKernelAPI)


def test_table2_cell_digest_is_the_same_with_and_without_the_proxy(monkeypatch):
    plan = FaultPlan(
        seed=4,
        agent_stalls=(AgentStall(time_us=sec(1)),),
        agent_stall_prob=0.02,
        agent_crashes=(AgentCrash(time_us=ms(1500)),),
        journal_write_fail_prob=0.1,
        journal_torn_write_prob=0.05,
    )
    shares = workload_shares(ShareDistribution.LINEAR, 10)

    def fingerprint():
        return fingerprint_run(
            shares, seed=1, horizon_us=sec(3), resilience=True, fault_plan=plan
        )

    direct = fingerprint()
    monkeypatch.setattr(
        FaultInjector, "wrap", lambda self, kapi: FaultyKernelAPI(kapi, self)
    )
    assert fingerprint() == direct
    assert b"agent-crash" in direct.trace and b"journal-" in direct.trace


@pytest.mark.parametrize("plan", NO_SYSCALL_FAULTS[:3])
def test_journal_gets_no_hook_from_a_plan_without_write_faults(plan):
    journal = MemoryJournal()
    build_controlled_workload([1, 2, 3], CFG, journal=journal, fault_plan=plan)
    assert journal.fault_hook is None


@pytest.mark.parametrize(
    "probs", ((0.1, 0.0), (0.0, 0.1), (0.1, 0.05)), ids=("lost", "torn", "both")
)
def test_journal_gets_the_write_fault_hook_from_a_plan_with_them(probs):
    journal = MemoryJournal()
    plan = FaultPlan(journal_write_fail_prob=probs[0], journal_torn_write_prob=probs[1])
    build_controlled_workload([1, 2, 3], CFG, journal=journal, fault_plan=plan)
    assert isinstance(journal.fault_hook, WriteFaults)
