"""The past-the-knee experiment: cells, codec, comparison plumbing.

The full past-the-knee matrix lives in the perf-gate benchmark
(``benchmarks/bench_overload_degradation.py``); these tests keep the
experiment's machinery honest at sizes small enough for tier-1 time.
"""

from __future__ import annotations

from repro.experiments import overload
from repro.experiments.overload import (
    KNEE_N,
    PAST_KNEE_N,
    OverloadComparison,
    OverloadPoint,
    run_overload_point,
)
from repro.experiments.registry import OVERLOAD
from repro.sweep import SweepCache, SweepCell, SweepSpec, run_sweep


def test_small_group_never_engages_the_ladder():
    point = run_overload_point(n=6, ladder=True, cycles=12, seed=0)
    assert point.ladder
    assert point.engagements == 0
    assert point.sheds == 0
    assert point.cycles_completed >= 12
    assert point.mean_rms_error_pct < 15.0


def test_control_point_reports_zero_telemetry():
    point = run_overload_point(n=6, ladder=False, cycles=8, seed=0)
    assert not point.ladder
    assert point.engagements == 0
    assert point.max_degraded_slip_quanta == 0.0


def test_cell_worker_and_codec_roundtrip(tmp_path):
    params = {"n": 6, "ladder": True, "cycles": 8, "seed": 1}
    spec = SweepSpec(
        worker=run_overload_point, cells=[SweepCell(OVERLOAD.experiment, params)]
    )
    cold = run_sweep(spec, workers=1, cache=SweepCache(tmp_path)).values[0]
    warm = run_sweep(spec, workers=1, cache=SweepCache(tmp_path)).values[0]
    assert isinstance(warm, OverloadPoint)
    assert warm == cold == run_overload_point(**params)
    assert warm.n == 6


def test_sweep_spec_pairs_ladder_and_control_per_size(monkeypatch):
    monkeypatch.setattr(overload, "KNEE_N", 6)
    monkeypatch.setattr(overload, "PAST_KNEE_N", 8)
    cells = OVERLOAD.cells(cycles=8)
    assert len(cells) == 4
    arms = [(c.params["n"], c.params["ladder"]) for c in cells]
    assert arms == [(6, True), (6, False), (8, True), (8, False)]
    assert {c.params["cycles"] for c in cells} == {8}


def test_comparison_ratio():
    protected = run_overload_point(n=6, ladder=True, cycles=8, seed=0)
    control = run_overload_point(n=6, ladder=False, cycles=8, seed=0)
    cmp = OverloadComparison(protected=protected, control=control)
    assert cmp.error_ratio == (
        protected.mean_rms_error_pct / control.mean_rms_error_pct
    )


def test_knee_constants_are_consistent():
    assert PAST_KNEE_N == 2 * KNEE_N
