"""Experiment cells run in the sweep scheduler's process pool."""

from repro.sweep import SweepCell, SweepSpec, default_sweep_workers, run_sweep
from repro.workloads.shares import ShareDistribution


def _square(x):  # module-level: picklable
    return x * x


def _tiny_accuracy(model, n, q):
    from repro.experiments.accuracy import run_accuracy_point

    return run_accuracy_point(
        ShareDistribution(model), n, q, cycles=5, seeds=(0,)
    ).mean_rms_error_pct


def _map(worker, params, workers):
    cells = [SweepCell("test.parallel", p) for p in params]
    return run_sweep(SweepSpec(worker=worker, cells=cells), workers=workers).values


def test_serial_fallback_preserves_order():
    params = [{"x": x} for x in (3, 1, 2)]
    assert _map(_square, params, workers=1) == [9, 1, 4]


def test_parallel_matches_serial():
    items = list(range(8))
    params = [{"x": x} for x in items]
    assert _map(_square, params, workers=2) == [x * x for x in items]


def test_default_workers_positive():
    assert default_sweep_workers() >= 1


def test_experiment_cells_run_in_pool():
    cells = [
        {"model": ShareDistribution.EQUAL.value, "n": 5, "q": 10},
        {"model": ShareDistribution.LINEAR.value, "n": 5, "q": 10},
    ]
    serial = _map(_tiny_accuracy, cells, workers=1)
    pooled = _map(_tiny_accuracy, cells, workers=2)
    assert serial == pooled  # determinism across process boundaries
