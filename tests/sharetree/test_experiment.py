"""The Gunther ratios-vs-guarantees experiment module."""

from __future__ import annotations

import pytest

from repro.experiments.registry import SHARETREE
from repro.experiments.sharetree import (
    SIBLING_COUNTS,
    TENANT_WEIGHT,
    gunther_tree,
    run_sharetree_point,
    throughput_variation,
)
from repro.sweep import SweepCache, SweepCell, SweepSpec, run_sweep


def test_gunther_tree_shape():
    tree = gunther_tree(3)
    assert tree.leaf_count == 5  # a0, a1, three sibling workers
    assert tree.effective_shares() == {sid: 2 for sid in range(5)}
    assert float(tree.fraction_of("a")) == pytest.approx(2 / 5)
    tree.check_conservation()
    with pytest.raises(ValueError):
        gunther_tree(0)


def test_single_cell_point_pins_the_ratio():
    point = run_sharetree_point(2, cycles=20, horizon_s=6.0)
    assert point.share_ratio == float(TENANT_WEIGHT)
    assert point.attained_ratio == pytest.approx(2.0, rel=0.05)
    assert point.ratio_error_pct < 5.0
    assert point.tenant_fraction == pytest.approx(0.5, abs=0.03)
    assert point.cycles_completed > 0
    assert point.migrations == 0


def test_throughput_falls_while_ratio_holds():
    low = run_sharetree_point(1, cycles=20, horizon_s=6.0)
    high = run_sharetree_point(8, cycles=20, horizon_s=6.0)
    for p in (low, high):
        assert p.attained_ratio == pytest.approx(2.0, rel=0.05)
    assert low.tenant_us_per_s / high.tenant_us_per_s >= 2.0
    assert throughput_variation([low, high]) >= 2.0


def test_sharded_point_keeps_the_ratio():
    point = run_sharetree_point(4, cells=2, horizon_s=5.0)
    assert point.cells == 2
    assert point.attained_ratio == pytest.approx(2.0, rel=0.1)


def test_cell_worker_and_payload_roundtrip(tmp_path):
    params = {"k": 2, "cycles": 10, "horizon_s": 4.0}
    spec = SweepSpec(
        worker=run_sharetree_point,
        cells=[SweepCell(SHARETREE.experiment, params)],
    )
    cold = run_sweep(spec, workers=1, cache=SweepCache(tmp_path)).values[0]
    warm = run_sweep(spec, workers=1, cache=SweepCache(tmp_path)).values[0]
    assert warm.k == 2
    assert warm == cold == run_sharetree_point(**params)


def test_sweep_spec_enumerates_the_grid():
    smoke = {(c.params["k"], c.params["cells"]) for c in SHARETREE.cells(smoke=True)}
    assert smoke == {(1, 1), (4, 1)}
    full = [(c.params["k"], c.params["cells"]) for c in SHARETREE.cells(full=True)]
    assert full == [(k, cells) for cells in (1, 2) for k in SIBLING_COUNTS]


def test_throughput_variation_degenerate_cases():
    assert throughput_variation([]) == 1.0
    single = run_sharetree_point(1, cycles=8, horizon_s=3.0)
    assert throughput_variation([single]) == 1.0
