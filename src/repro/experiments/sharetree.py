"""Gunther "ratios, not guarantees" share-tree experiment.

Gunther's Solaris SRM capacity-planning papers ("Unfair Advantage",
PAPERS.md) make a point every share-tree operator eventually rediscovers:
shares bound the *ratio* of service between siblings, not any absolute
*guarantee* of throughput.  A tenant holding twice its sibling's shares
always attains ≈2× each sibling's CPU — but its absolute throughput
collapses as more siblings arrive, because the same ratio is being taken
out of an ever-thinner slice.

This experiment reproduces that result on the share tree
(docs/share_tree.md).  Tenant ``a`` (weight 2, two equal workers) faces
``k`` unit-weight sibling tenants (one worker each) for
``k ∈ {1, 2, 4, 8}``:

* the attained ratio of tenant ``a`` to a mean sibling stays pinned at
  the share ratio 2.0 (the *bounded* quantity), while
* tenant ``a``'s absolute throughput falls from 2/3 of the machine to
  1/5 — a >3× swing with **no change to its shares** (the thing shares
  never guaranteed).

``cells=1`` runs the tree under a single ALPS agent; ``cells>1`` runs it
on the sharded control plane (:class:`~repro.sharetree.ShardedAlpsPlane`)
where each cell enforces its own subtrees — intra-cell ratios stay
bounded while cross-cell proportions belong to the kernel, which is the
sharding trade the docs chapter discusses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.alps.config import AlpsConfig
from repro.experiments.common import run_for_cycles
from repro.units import SEC, ms, sec
from repro.workloads.scenarios import build_controlled_workload

#: Tenant ``a``'s weight relative to each unit-weight sibling tenant.
TENANT_WEIGHT = 2
#: Quantum used throughout (matches the Table 2 calibration).
SHARETREE_QUANTUM_MS = 10.0
#: Sibling-count load points of the full sweep.
SIBLING_COUNTS = (1, 2, 4, 8)
#: Warm-up cycles excluded from attainment accounting (single-cell arm).
SKIP_CYCLES = 3


def gunther_tree(k: int):
    """The experiment's share tree: tenant ``a`` vs ``k`` unit siblings.

    Tenant ``a`` (weight :data:`TENANT_WEIGHT`) runs two equal workers
    (sids 0 and 1); sibling tenants ``s1..sk`` (weight 1) run one worker
    each (sids 2..k+1).  Every leaf resolves to the same effective share,
    so the schedule itself is equal-share — the hierarchy is what makes
    the per-*tenant* ratio 2:1.
    """
    from repro.sharetree import ShareTree

    if k < 1:
        raise ValueError(f"need at least one sibling tenant, got {k}")
    tree = ShareTree()
    tree.group("a", TENANT_WEIGHT)
    tree.leaf("a/a0", sid=0, weight=1)
    tree.leaf("a/a1", sid=1, weight=1)
    for j in range(1, k + 1):
        tree.group(f"s{j}", 1)
        tree.leaf(f"s{j}/w", sid=1 + j, weight=1)
    return tree


@dataclass(slots=True, frozen=True)
class SharetreePoint:
    """One (k, cells) cell of the Gunther ratios-vs-guarantees sweep."""

    k: int
    cells: int
    quantum_ms: float
    seed: int
    #: The ratio shares promise between tenant ``a`` and one sibling.
    share_ratio: float
    #: Tenant ``a``'s attained CPU over a mean sibling's (the bounded
    #: quantity — stays ≈ ``share_ratio`` at every load point).
    attained_ratio: float
    ratio_error_pct: float
    #: Tenant ``a``'s fraction of all attained CPU (the *unbounded*
    #: quantity — collapses as siblings arrive).
    tenant_fraction: float
    sibling_mean_fraction: float
    #: Absolute throughput proxy: tenant ``a``'s attained µs per wall
    #: second.  Shares never guaranteed this number.
    tenant_us_per_s: float
    cycles_completed: int
    wall_us: int
    migrations: int


def _point_from_attained(
    attained: Mapping[int, int],
    *,
    k: int,
    cells: int,
    quantum_ms: float,
    seed: int,
    cycles_completed: int,
    wall_us: int,
    migrations: int,
) -> SharetreePoint:
    """Fold per-sid attainment into the experiment's tenant metrics."""
    tenant_us = attained.get(0, 0) + attained.get(1, 0)
    sibling_us = [attained.get(1 + j, 0) for j in range(1, k + 1)]
    total = tenant_us + sum(sibling_us)
    tenant_fraction = tenant_us / total if total else 0.0
    sibling_mean = (sum(sibling_us) / k) / total if total else 0.0
    attained_ratio = (
        tenant_fraction / sibling_mean if sibling_mean > 0 else float("inf")
    )
    share_ratio = float(TENANT_WEIGHT)
    return SharetreePoint(
        k=k,
        cells=cells,
        quantum_ms=quantum_ms,
        seed=seed,
        share_ratio=share_ratio,
        attained_ratio=attained_ratio,
        ratio_error_pct=100.0 * abs(attained_ratio - share_ratio) / share_ratio,
        tenant_fraction=tenant_fraction,
        sibling_mean_fraction=sibling_mean,
        tenant_us_per_s=tenant_us / (wall_us / SEC) if wall_us else 0.0,
        cycles_completed=cycles_completed,
        wall_us=wall_us,
        migrations=migrations,
    )


def run_sharetree_point(
    k: int,
    cells: int = 1,
    quantum_ms: float = SHARETREE_QUANTUM_MS,
    *,
    cycles: int = 40,
    seed: int = 0,
    horizon_s: float = 10.0,
) -> SharetreePoint:
    """One Gunther cell: tenant ``a`` vs ``k`` siblings, on one agent
    (``cells=1``) or the sharded plane (``cells>1``).

    The single-cell arm runs to a cycle count and sums the cycle log's
    consumption (skipping :data:`SKIP_CYCLES` warm-up cycles); the
    sharded arm runs to a wall horizon and reads each cell's cumulative
    attainment, because cycle boundaries are per-cell there.
    """
    tree = gunther_tree(k)
    leaf_weights = [1] * (k + 2)
    if cells <= 1:
        cw = build_controlled_workload(
            leaf_weights,
            AlpsConfig(quantum_us=ms(quantum_ms)),
            seed=seed,
            sharetree=tree,
        )
        run_for_cycles(
            cw, cycles, max_sim_us=int(horizon_s * 4 * SEC),
            on_incomplete="ignore",
        )
        attained: dict[int, int] = {}
        for rec in cw.agent.cycle_log[SKIP_CYCLES:]:
            for sid, used in rec.consumed.items():
                attained[sid] = attained.get(sid, 0) + used
        return _point_from_attained(
            attained,
            k=k,
            cells=1,
            quantum_ms=quantum_ms,
            seed=seed,
            cycles_completed=len(cw.agent.cycle_log),
            wall_us=cw.kernel.now,
            migrations=0,
        )
    from repro.sharetree import ShardedAlpsPlane

    plane = ShardedAlpsPlane(
        tree,
        AlpsConfig(quantum_us=ms(quantum_ms)),
        cells=cells,
        seed=seed,
    )
    plane.run_until(sec(horizon_s))
    completed = min(
        (len(agent.cycle_log) for agent in plane.agents.values()), default=0
    )
    return _point_from_attained(
        plane.attained_us(),
        k=k,
        cells=cells,
        quantum_ms=quantum_ms,
        seed=seed,
        cycles_completed=completed,
        wall_us=plane.kernel.now,
        migrations=plane.migrations,
    )


def throughput_variation(points: Sequence[SharetreePoint]) -> float:
    """Max/min absolute tenant throughput across single-cell load points.

    The "not guarantees" half of the claim: this is expected to be ≥2
    (the acceptance gate) while every point's ``attained_ratio`` stays
    within a few percent of :data:`TENANT_WEIGHT`.
    """
    tput = [
        p.tenant_us_per_s for p in points if p.cells == 1 and p.tenant_us_per_s
    ]
    if len(tput) < 2:
        return 1.0
    return max(tput) / min(tput)
