"""Plane chaos suite: episode kinds, nine invariants, determinism."""

from __future__ import annotations

import pytest

from repro.resilience.chaos import (
    PLANE_CELLS,
    PLANE_KINDS,
    ChaosEpisode,
    audit_plane_partition,
    plane_episode_plan,
    plane_episode_tree,
    run_chaos_campaign,
    run_chaos_episode,
    run_plane_episode,
)
from repro.sweep.codec import decode, encode
from repro.units import sec

#: Small episode shape shared by the tests (seconds, not minutes).
FAST = dict(cycles=15, warmup_cycles=2)

#: The nine plane-suite invariants, in canonical report order.
PLANE_INVARIANTS = (
    "no_lost_process",
    "no_wedged_process",
    "cpu_conservation",
    "bounded_fairness",
    "agent_liveness",
    "bounded_timer_slip",
    "degrade_recover_roundtrip",
    "no_orphaned_subtree",
    "migration_atomicity",
)


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------
def test_plane_plan_kinds_pin_their_faults():
    crash = plane_episode_plan(
        "crash", 0.1, horizon_us=sec(12), restart_budget=5
    )
    assert [c.time_us for c in crash.cell_crashes] == [sec(4), sec(8)]
    assert {c.cell for c in crash.cell_crashes} == {0, 1}
    assert crash.journal_write_fail_prob == pytest.approx(0.1)
    assert crash.journal_torn_write_prob == pytest.approx(0.05)

    tear = plane_episode_plan(
        "tear", 0.0, horizon_us=sec(12), restart_budget=5
    )
    assert [t.crash for t in tear.migration_tears] == [True, False]
    assert not tear.cell_crashes
    assert tear.journal_write_fail_prob == 0.0

    rehome = plane_episode_plan(
        "rehome", 0.0, horizon_us=sec(16), restart_budget=3
    )
    assert len(rehome.cell_crashes) == 5  # budget + 2: must exhaust
    assert {c.cell for c in rehome.cell_crashes} == {0}
    # Every pinned fault lands before the settle window.
    assert all(c.time_us < (3 * sec(16)) // 4 for c in rehome.cell_crashes)

    with pytest.raises(ValueError):
        plane_episode_plan("flood", 0.0, horizon_us=sec(12), restart_budget=5)


# ---------------------------------------------------------------------------
# Episode kinds: all nine invariants hold under injected faults
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", PLANE_KINDS)
def test_plane_episode_passes_all_nine_invariants(kind):
    ep = run_plane_episode(
        3, 0.05, plane_kind=kind, restart_budget=2, **FAST
    )
    assert ep.suite == "plane"
    assert ep.plane_kind == kind
    assert ep.cells == PLANE_CELLS
    assert tuple(r.name for r in ep.invariants) == PLANE_INVARIANTS
    assert ep.ok, [r for r in ep.invariants if not r.ok]


def test_crash_episode_restarts_within_budget():
    ep = run_plane_episode(
        3, 0.05, plane_kind="crash", restart_budget=2, **FAST
    )
    assert ep.supervisor_restarts == 2  # the two pinned cell crashes
    assert ep.dead_cells == 0 and ep.rehomes == 0
    assert ep.journal_writes_lost > 0  # cell journals took real faults
    assert not ep.degraded


def test_tear_episode_salvages_both_tear_modes():
    ep = run_plane_episode(
        3, 0.05, plane_kind="tear", restart_budget=2, **FAST
    )
    assert ep.tears == 2  # one crash-mode, one exception-mode
    # Both leave an uncommitted intent behind (the exception-mode
    # rollback happens before the commit record), so both salvage.
    assert ep.salvages == 2
    assert ep.dead_cells == 0


def test_rehome_episode_kills_a_cell_and_rehomes_it():
    ep = run_plane_episode(
        3, 0.05, plane_kind="rehome", restart_budget=2, **FAST
    )
    assert ep.dead_cells == 1
    assert ep.rehomes >= 1
    assert ep.degraded  # a dead cell is a degraded plane
    assert ep.ok  # ... but every invariant still holds


def test_fault_free_plane_episode_keeps_pinned_faults_only():
    ep = run_plane_episode(
        3, 0.0, plane_kind="crash", restart_budget=2, **FAST
    )
    assert ep.supervisor_restarts == 2  # pinned crashes still fire
    assert ep.journal_writes_lost == 0  # rate-driven faults do not
    assert ep.journal_writes_torn == 0
    assert ep.ok


def test_plane_episode_is_deterministic_and_roundtrips():
    a = run_plane_episode(7, 0.05, plane_kind="tear", **FAST)
    b = run_plane_episode(7, 0.05, plane_kind="tear", **FAST)
    assert encode(a) == encode(b)
    assert decode(ChaosEpisode, encode(a)) == a


def test_run_chaos_episode_dispatches_the_plane_suite():
    ep = run_chaos_episode(
        3, 0.0, suite="plane", plane_kind="rehome", restart_budget=2, **FAST
    )
    assert ep.suite == "plane" and ep.plane_kind == "rehome"
    with pytest.raises(ValueError):
        run_plane_episode(0, 0.0, plane_kind="flood", **FAST)


# ---------------------------------------------------------------------------
# Partition audit: catches real damage
# ---------------------------------------------------------------------------
def test_partition_audit_is_clean_on_a_healthy_plane():
    from repro.alps.config import AlpsConfig
    from repro.sharetree import ShardedAlpsPlane
    from repro.units import ms

    plane = ShardedAlpsPlane(
        plane_episode_tree(), AlpsConfig(quantum_us=ms(10)), cells=3, seed=0
    )
    plane.run_until(sec(1))
    assert audit_plane_partition(plane) == ([], [])


def test_partition_audit_flags_lost_split_and_duplicated_sids():
    from repro.alps.config import AlpsConfig
    from repro.sharetree import ShardedAlpsPlane
    from repro.units import ms

    plane = ShardedAlpsPlane(
        plane_episode_tree(), AlpsConfig(quantum_us=ms(10)), cells=3, seed=0
    )
    plane.run_until(sec(1))
    kapi = plane.kernel.kapi
    # Strand one leaf outside every cell: atomicity violation.
    src = plane.cell_of_sid(0)
    subject = plane.agents[src].release_subject(0, kapi)
    orphans, atomic = audit_plane_partition(plane)
    assert any("sid 0 owned by no cell" in v for v in atomic)
    # Its sibling (sid 1) is still on the source cell, so tenant t0 is
    # now... whole-but-short; re-adopting into a *different* cell splits
    # the subtree across cells: orphan violation.
    other = next(c for c in plane.agents if c != src)
    plane.agents[other].adopt_subject(subject, kapi)
    orphans, atomic = audit_plane_partition(plane)
    assert any("subtree t0 split across cells" in v for v in orphans)
    assert not any("owned by no cell" in v for v in atomic)


# ---------------------------------------------------------------------------
# Campaign plumbing
# ---------------------------------------------------------------------------
def test_plane_campaign_rotates_kinds_and_is_deterministic():
    r1 = run_chaos_campaign(
        0, suite="plane", episodes=3, rates=(0.05,), restart_budget=2, **FAST
    )
    r2 = run_chaos_campaign(
        0, suite="plane", episodes=3, rates=(0.05,), restart_budget=2, **FAST
    )
    assert r1.format_table() == r2.format_table()
    assert [ep.plane_kind for ep in r1.episodes] == list(PLANE_KINDS)
    assert all(ep.suite == "plane" for ep in r1.episodes)
    assert r1.ok
    table = r1.format_table()
    # The plane columns render: kind names and the re-home census.
    assert "kind" in table and "rehome" in table
    for kind in PLANE_KINDS:
        assert kind in table
