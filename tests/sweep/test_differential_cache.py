"""Differential guarantee: cached results are exactly the fresh ones.

Runs the Table 2 workload matrix (all nine model × size combinations,
seeds 0-2, benchmark-sized cycle counts) three ways — cold through the
cache, warm from the cache, and fresh with no cache — and asserts the
encoded results agree byte for byte.  Then every experiment's smallest
cell goes the same three ways and must decode to equal typed results,
field by field, with a re-encoding that reproduces the stored bytes.
This is the property that makes ``repro report`` safely incremental: a
cache hit can never change a reported number.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.experiments import (
    accuracy,
    io,
    multi,
    overhead,
    overload,
    robustness,
    scalability,
    sensitivity,
    sharetree,
    table1_ops,
    webserver,
)
from repro.experiments.registry import EXPERIMENTS
from repro.resilience import chaos
from repro.sweep import SweepCache, SweepCell, SweepSpec, run_sweep
from repro.sweep.codec import decode, encode
from repro.workloads.shares import DISTRIBUTIONS, ShareDistribution


def _table2_spec() -> SweepSpec:
    return SweepSpec(
        worker=accuracy.run_accuracy_point,
        cells=[
            SweepCell(
                EXPERIMENTS["fig4"].experiment,
                {"model": model, "n": n, "quantum_ms": 10.0, "cycles": 5,
                 "seeds": (0, 1, 2)},
            )
            for model in DISTRIBUTIONS
            for n in (5, 10, 20)
        ],
    )


def _bytes(value) -> str:
    return json.dumps(encode(value), sort_keys=True, separators=(",", ":"))


def test_cached_and_fresh_results_byte_identical(tmp_path):
    cold = run_sweep(_table2_spec(), workers=1, cache=SweepCache(tmp_path / "c"))
    assert (cold.stats.hits, cold.stats.misses) == (0, 9)

    warm = run_sweep(_table2_spec(), workers=1, cache=SweepCache(tmp_path / "c"))
    assert (warm.stats.hits, warm.stats.misses) == (9, 0)

    fresh = run_sweep(_table2_spec(), workers=1, cache=None)

    for cold_v, warm_v, fresh_v in zip(cold.values, warm.values, fresh.values):
        assert _bytes(cold_v) == _bytes(warm_v) == _bytes(fresh_v)


def _assert_same(a, b, path="result"):
    """Equal field by field: type, tuple vs list, ndarray dtype and shape."""
    assert type(a) is type(b), f"{path}: {type(a).__name__} vs {type(b).__name__}"
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), path
        assert np.array_equal(a, b), path
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for k in a:
            _assert_same(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, float) and math.isnan(a):
        assert math.isnan(b), path
    else:
        assert a == b, path


@pytest.fixture
def fixed_table1_timings(monkeypatch):
    """Table 1 times this host live; pin its primitives so the cell is
    deterministic and instant."""
    monkeypatch.setattr(table1_ops, "time_timer_event", lambda iterations: 9.5)
    monkeypatch.setattr(
        table1_ops, "time_measure_ladder", lambda iterations: (1.25, 17.0)
    )
    monkeypatch.setattr(table1_ops, "time_signal", lambda iterations: 1.0)


#: Every experiment's smallest cell: (point function, experiment id, params).
SMALLEST_CELLS = {
    "accuracy": (
        accuracy.run_accuracy_point, EXPERIMENTS["fig4"].experiment,
        {"model": ShareDistribution.SKEWED, "n": 5, "quantum_ms": 10.0,
         "cycles": 5, "seeds": (0,)},
    ),
    "overhead": (
        overhead.run_overhead_point, EXPERIMENTS["fig5"].experiment,
        {"model": ShareDistribution.LINEAR, "n": 5, "quantum_ms": 10,
         "cycles": 5},
    ),
    "io": (
        io.run_io_experiment, EXPERIMENTS["fig6"].experiment,
        {"total_cycles": 60, "warmup_cpu_s": 0.2},
    ),
    "multi": (
        multi.run_multi_alps_experiment, EXPERIMENTS["fig7"].experiment,
        # C starts at 6 s: its series stay empty arrays.
        {"phase_ends_s": (0.5, 1.0, 3.5)},
    ),
    "scalability": (
        scalability.run_scalability_point, EXPERIMENTS["fig8"].experiment,
        {"n": 5, "quantum_ms": 10, "cycles": 5},
    ),
    "webserver": (
        webserver.run_webserver_experiment, EXPERIMENTS["sec5"].experiment,
        {"n_clients": 5, "warmup_s": 0.5, "measure_s": 1.0},
    ),
    "overload": (
        overload.run_overload_point, EXPERIMENTS["overload"].experiment,
        {"n": 6, "cycles": 8},
    ),
    "robustness": (
        # A standalone point: degradation_pct is NaN.
        robustness.run_robustness_point, robustness.ROBUSTNESS_EXPERIMENT,
        {"fault_rate": 0.05, "cycles": 5, "seeds": (0,)},
    ),
    "sensitivity": (
        # observed_n is None: no knee below n = 10.
        sensitivity.run_sensitivity_point, sensitivity.SENSITIVITY_EXPERIMENT,
        {"factor": 1.0, "sizes": (5, 10), "cycles": 5},
    ),
    "sharetree": (
        sharetree.run_sharetree_point, EXPERIMENTS["sharetree"].experiment,
        {"k": 2, "cycles": 10, "horizon_s": 4.0},
    ),
    "chaos": (
        chaos.run_chaos_episode, chaos.CHAOS_EXPERIMENT,
        {"seed": 0, "fault_rate": 0.05, "cycles": 10, "warmup_cycles": 2},
    ),
    "table1": (
        table1_ops.run_table1, EXPERIMENTS["table1"].experiment, {"quick": True},
    ),
}


@pytest.mark.parametrize("name", sorted(SMALLEST_CELLS))
def test_every_result_type_roundtrips_exactly(name, tmp_path, fixed_table1_timings):
    worker, experiment, params = SMALLEST_CELLS[name]
    spec = SweepSpec(worker=worker, cells=[SweepCell(experiment, params)])
    fresh = run_sweep(spec, workers=1).values[0]
    cold = run_sweep(spec, workers=1, cache=SweepCache(tmp_path)).results[0]
    warm = run_sweep(spec, workers=1, cache=SweepCache(tmp_path)).results[0]
    assert not cold.cached and warm.cached

    _assert_same(fresh, worker(**params))
    _assert_same(cold.value, fresh)
    _assert_same(warm.value, fresh)

    blob = tmp_path / warm.key[:2] / f"{warm.key}.json"
    stored = json.dumps(json.loads(blob.read_text())["payload"])
    assert json.dumps(encode(warm.value)) == stored


def test_dataclass_payload_with_a_missing_or_unknown_field_raises():
    payload = encode(
        accuracy.AccuracyPoint(ShareDistribution.EQUAL, 5, 10.0, 1.5, (1.5,), 5)
    )
    missing = {k: v for k, v in payload.items() if k != "cycles"}
    with pytest.raises(TypeError, match="missing fields \\['cycles'\\]"):
        decode(accuracy.AccuracyPoint, missing)
    with pytest.raises(TypeError, match="unknown fields \\['extra'\\]"):
        decode(accuracy.AccuracyPoint, {**payload, "extra": 1})
