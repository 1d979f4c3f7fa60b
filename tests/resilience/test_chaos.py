"""Chaos campaign machinery: determinism, invariants, report surface."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import InvariantViolation
from repro.resilience.chaos import (
    ChaosEpisode,
    ChaosReport,
    episode_plan,
    run_chaos_campaign,
    run_chaos_episode,
)
from repro.resilience.invariants import InvariantResult
from repro.sweep.codec import decode, encode
from repro.units import sec

#: Small episode shape shared by the tests (seconds, not minutes).
FAST = dict(cycles=20, warmup_cycles=2)


def test_episode_plan_adds_journal_faults_and_pinned_crashes():
    plan = episode_plan(0.1, seed=3, horizon_us=sec(10))
    assert plan.journal_write_fail_prob == pytest.approx(0.1)
    assert plan.journal_torn_write_prob == pytest.approx(0.05)
    assert [c.time_us for c in plan.agent_crashes] == [
        sec(10) // 3,
        2 * sec(10) // 3,
    ]
    # The fault-free point stays genuinely fault-free.
    assert episode_plan(0.0, seed=3, horizon_us=sec(10)).is_null


def test_episode_is_deterministic():
    a = run_chaos_episode(7, 0.05, **FAST)
    b = run_chaos_episode(7, 0.05, **FAST)
    assert encode(a) == encode(b)


def test_episode_exercises_journaled_recovery():
    ep = run_chaos_episode(0, 0.05, **FAST)
    assert ep.restarts == 2  # the two pinned crashes
    assert ep.journal_recoveries == 2
    assert ep.recovery_fallbacks == 0
    assert ep.journal_writes_lost > 0
    assert len(ep.invariants) == 7
    assert ep.ok


def test_fault_free_episode_is_clean():
    ep = run_chaos_episode(0, 0.0, **FAST)
    assert ep.restarts == 0
    assert ep.journal_writes_lost == 0
    assert ep.ok
    assert ep.error_pct < 8.0


def test_payload_roundtrip_is_exact():
    ep = run_chaos_episode(1, 0.02, **FAST)
    assert decode(ChaosEpisode, encode(ep)) == ep


def test_campaign_is_deterministic_and_seed_sensitive():
    r1 = run_chaos_campaign(0, episodes=2, rates=(0.05,), **FAST)
    r2 = run_chaos_campaign(0, episodes=2, rates=(0.05,), **FAST)
    assert r1.format_table() == r2.format_table()
    r3 = run_chaos_campaign(1, episodes=2, rates=(0.05,), **FAST)
    assert [ep.seed for ep in r3.episodes] != [ep.seed for ep in r1.episodes]


def test_campaign_validates_arguments():
    with pytest.raises(ValueError):
        run_chaos_campaign(0, episodes=0)
    with pytest.raises(ValueError):
        run_chaos_campaign(0, rates=())


def test_report_violations_and_raise():
    ep = run_chaos_episode(0, 0.0, **FAST)
    bad = replace(
        ep,
        invariants=(
            InvariantResult("bounded_fairness", False, "err 99% vs 8%"),
        ),
    )
    report = ChaosReport(campaign_seed=0, episodes=[ep, bad])
    assert not report.ok
    assert report.violations() == [(1, "bounded_fairness", "err 99% vs 8%")]
    with pytest.raises(InvariantViolation) as exc:
        report.raise_on_violation()
    assert exc.value.violations == [(1, "bounded_fairness", "err 99% vs 8%")]
    assert "FAIL" in report.format_table()
    clean = ChaosReport(campaign_seed=0, episodes=[ep])
    clean.raise_on_violation()  # no-op
    assert "PASS" in clean.format_table()
