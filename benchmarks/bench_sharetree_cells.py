"""Share tree — sharded cells hold intra-cell ratios; attach is free.

Two claims from docs/share_tree.md, gated here:

* **Ratios under sharding**: on a cells × subtree-depth grid of
  :class:`~repro.sharetree.ShardedAlpsPlane` runs, every cell's agent
  keeps its *own* subjects' attained fractions proportional to their
  tree-resolved effective shares, at every depth.  (Cross-cell
  proportions belong to the kernel — the sharding trade the docs
  chapter discusses — so the assertion is strictly per cell.)
* **Flat attach overhead**: attaching a flat-equivalent
  :class:`~repro.sharetree.ShareTree` to the standard single-agent
  workload is schedule-identical (tests prove byte-identity); this
  benchmark gates the *wall-clock* cost of carrying the tree under
  :data:`MAX_OVERHEAD` (≤ 5 % vs the bare flat run, best-of-3 each
  arm).
"""

import time

from benchmarks.conftest import emit
from repro.alps.config import AlpsConfig
from repro.analysis.export import write_csv
from repro.analysis.tables import format_table
from repro.metrics.accuracy import per_subject_fractions
from repro.sharetree import ShardedAlpsPlane, ShareTree
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload

#: Max fractional wall-time overhead of a flat-equivalent tree attach.
MAX_OVERHEAD = 0.05

#: The grid: concurrent cells × share-tree depth.
CELL_COUNTS = (1, 2)
DEPTHS = (1, 2, 3)

#: Warm-up cycles excluded from attained fractions.
SKIP = 5
#: Per-cell ratio tolerance (absolute, on fractions within the cell).
TOLERANCE = 0.03

HORIZON_US = sec(10)
FLAT_SHARES = [1, 2, 3, 4, 5]
# Long enough that the best-of-3 arms dominate scheduler/allocator
# noise — a ±5 % gate on a tens-of-ms arm flaps on shared machines.
FLAT_HORIZON_US = sec(40)


def tree_of_depth(depth: int) -> ShareTree:
    """A deterministic tree with leaves at exactly ``depth`` levels.

    Depth 1 is four weighted leaves at the root (the flat shape);
    each extra level nests two weighted groups above them.
    """
    tree = ShareTree()
    sid = 0

    def build(prefix: str, level: int) -> None:
        nonlocal sid
        if level == depth:
            for i in range(2):
                path = f"{prefix}l{i}" if prefix else f"l{sid}"
                tree.leaf(path, sid=sid, weight=i + 1)
                sid += 1
            return
        for i in range(2):
            path = f"{prefix}g{i}" if prefix else f"g{i}"
            tree.group(path, i + 1)
            build(path + "/", level + 1)

    if depth == 1:
        for i in range(4):
            tree.leaf(f"l{i}", sid=sid, weight=i + 1)
            sid += 1
    else:
        build("", 1)
    return tree


def _cell_ratio_error(plane: ShardedAlpsPlane) -> float:
    """Worst |attained − target| fraction across every cell's subjects,
    where targets are the tree's effective shares renormalised within
    the cell (the quantity one agent can actually enforce)."""
    eff = plane.tree.effective_shares()
    worst = 0.0
    for agent in plane.agents.values():
        sids = sorted(agent.subjects)
        attained = per_subject_fractions(agent.cycle_log, skip=SKIP)
        cell_total = sum(eff[sid] for sid in sids) or 1
        for sid in sids:
            target = eff[sid] / cell_total
            worst = max(worst, abs(attained.get(sid, 0.0) - target))
    return worst


def _run_grid():
    rows = []
    for cells in CELL_COUNTS:
        for depth in DEPTHS:
            plane = ShardedAlpsPlane(
                tree_of_depth(depth),
                AlpsConfig(quantum_us=ms(10)),
                cells=cells,
                seed=0,
            )
            t0 = time.perf_counter()
            plane.run_until(HORIZON_US)
            wall_s = time.perf_counter() - t0
            plane.tree.check_conservation()
            rows.append(
                {
                    "cells": cells,
                    "depth": depth,
                    "leaves": plane.tree.leaf_count,
                    "agents": len(plane.agents),
                    "ratio_err": _cell_ratio_error(plane),
                    "overhead": plane.overhead_fraction(),
                    "wall_s": wall_s,
                }
            )
    return rows


def _flat_arm(attach_tree: bool) -> float:
    """Best-of-3 wall time of the flat workload, tree on or off."""
    best = float("inf")
    for _ in range(3):
        tree = ShareTree.flat(FLAT_SHARES) if attach_tree else None
        cw = build_controlled_workload(
            FLAT_SHARES,
            AlpsConfig(quantum_us=ms(10)),
            seed=0,
            sharetree=tree,
        )
        t0 = time.perf_counter()
        cw.engine.run_until(FLAT_HORIZON_US)
        best = min(best, time.perf_counter() - t0)
    return best


def test_sharded_cells_hold_ratios(benchmark, results_dir):
    rows = benchmark.pedantic(_run_grid, rounds=1, iterations=1)

    emit(
        "SHARE TREE — per-cell ratio error across cells × depth",
        format_table(
            ["cells", "depth", "leaves", "agents", "worst ratio err",
             "agent overhead"],
            [
                [r["cells"], r["depth"], r["leaves"], r["agents"],
                 f"{r['ratio_err']:.1%}", f"{r['overhead']:.2%}"]
                for r in rows
            ],
        )
        + "\n\nintra-cell ratios track effective shares at every depth; "
        "cross-cell proportions are the kernel's (docs/share_tree.md).",
    )
    write_csv(results_dir / "sharetree_cells.csv", rows)

    for r in rows:
        assert r["ratio_err"] <= TOLERANCE, (
            f"cells={r['cells']} depth={r['depth']}: worst intra-cell "
            f"ratio error {r['ratio_err']:.1%} exceeds {TOLERANCE:.0%}"
        )


def test_flat_tree_attach_overhead(results_dir):
    _flat_arm(attach_tree=True)  # untimed: warm allocator/caches for both
    bare_s = _flat_arm(attach_tree=False)
    treed_s = _flat_arm(attach_tree=True)
    overhead = treed_s / bare_s - 1.0

    emit(
        "SHARE TREE — flat-equivalent attach wall overhead",
        f"bare {bare_s * 1e3:.1f} ms vs treed {treed_s * 1e3:.1f} ms "
        f"-> {overhead:+.2%} (gate {MAX_OVERHEAD:.0%})",
    )
    write_csv(
        results_dir / "sharetree_attach_overhead.csv",
        [{"bare_s": bare_s, "treed_s": treed_s, "overhead": overhead}],
    )
    assert overhead <= MAX_OVERHEAD, (
        f"flat tree attach costs {overhead:+.2%} wall time, over the "
        f"MAX_OVERHEAD={MAX_OVERHEAD:.0%} gate"
    )
