"""Journaled crash recovery of the simulated agent, end to end."""

from __future__ import annotations

from repro.alps.config import AlpsConfig
from repro.experiments.common import run_for_cycles
from repro.faults.plan import AgentCrash, FaultPlan
from repro.obs.observer import Observer
from repro.resilience.journal import LOST, MemoryJournal
from repro.resilience.supervisor import RestartPolicy, Supervisor
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload
from tests.resilience.scripted_faults import scripted_faults

SHARES = (1, 2, 3)
CFG = AlpsConfig(quantum_us=ms(10))


def crash_plan(seed: int, *, crashes=1, horizon_us=sec(4)) -> FaultPlan:
    times = tuple(
        AgentCrash(time_us=(i + 1) * horizon_us // (crashes + 1))
        for i in range(crashes)
    )
    return FaultPlan(seed=seed, horizon_us=horizon_us, agent_crashes=times)


def build(seed=0, *, plan=None, journal=None, observer=None, supervisor=None):
    return build_controlled_workload(
        list(SHARES),
        CFG,
        seed=seed,
        fault_plan=plan,
        journal=journal,
        observer=observer,
        supervisor=supervisor,
    )


def test_crash_with_journal_recovers_instead_of_rebaselining():
    obs = Observer()
    cw = build(plan=crash_plan(0), journal=MemoryJournal(), observer=obs)
    run_for_cycles(cw, 30, max_sim_us=sec(4), on_incomplete="ignore")
    agent = cw.agent
    assert agent.restarts == 1
    assert agent.journal_recoveries == 1
    assert agent.recovery_fallbacks == 0
    assert agent.last_restart_journaled
    recovered = obs.events.of_kind("agent.recovered")
    assert len(recovered) == 1
    # The outage's consumption was scheduled as repayable debt, not
    # forgiven: the crash leaves real downtime, so debt is nonzero.
    assert recovered[0].fields["debt_us"] > 0
    # And the run kept making scheduling progress afterwards.
    assert len(agent.cycle_log) >= 30


def test_crash_without_journal_takes_lossy_path():
    cw = build(plan=crash_plan(0))
    run_for_cycles(cw, 30, max_sim_us=sec(4), on_incomplete="ignore")
    assert cw.agent.restarts == 1
    assert cw.agent.journal_recoveries == 0
    assert not cw.agent.last_restart_journaled


def test_corrupt_journal_falls_back_to_reconciliation():
    journal = MemoryJournal(fault_hook=scripted_faults(lambda: LOST))  # lose all
    cw = build(plan=crash_plan(0), journal=journal)
    run_for_cycles(cw, 30, max_sim_us=sec(4), on_incomplete="ignore")
    assert cw.agent.restarts == 1
    assert cw.agent.journal_recoveries == 0
    assert cw.agent.recovery_fallbacks == 1
    # The lossy path still leaves a working scheduler.
    assert len(cw.agent.cycle_log) >= 30


def test_recovery_restores_core_cycle_position():
    """The restored core resumes the same cycle: cycle indices in the
    log stay contiguous across the crash instead of restarting at 0."""
    cw = build(plan=crash_plan(0), journal=MemoryJournal())
    run_for_cycles(cw, 30, max_sim_us=sec(4), on_incomplete="ignore")
    indices = [rec.index for rec in cw.agent.cycle_log]
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)


def test_deferred_debt_is_journaled_and_drains():
    """Debt survives in snapshots (key "debt") and is repaid over time:
    by the end of a healthy post-crash run the deferred map is empty."""
    journal = MemoryJournal()
    cw = build(plan=crash_plan(0), journal=journal)
    run_for_cycles(cw, 55, max_sim_us=sec(6), on_incomplete="ignore")
    rec = journal.recover()
    assert rec.snapshot is not None
    assert "debt" in rec.snapshot["agent"]
    assert cw.agent.step.debt == {}


def test_supervisor_budget_exhaustion_stands_down_and_resumes_all():
    plan = crash_plan(0, crashes=6, horizon_us=sec(6))
    sup = Supervisor(
        RestartPolicy(restart_budget=2, initial_backoff_us=ms(5)),
        quantum_us=CFG.quantum_us,
    )
    cw = build(plan=plan, journal=MemoryJournal(), supervisor=sup)
    cw.engine.run_until(sec(6))
    assert sup.degraded
    assert sup.restarts == 2
    # Degraded mode released everything: no worker left stopped.
    for proc in cw.workers:
        assert not cw.kernel.is_stopped(proc.pid)


def test_double_crash_recovers_twice():
    cw = build(plan=crash_plan(0, crashes=2), journal=MemoryJournal())
    run_for_cycles(cw, 30, max_sim_us=sec(4), on_incomplete="ignore")
    assert cw.agent.restarts == 2
    assert cw.agent.journal_recoveries == 2
    assert cw.agent.recovery_fallbacks == 0
