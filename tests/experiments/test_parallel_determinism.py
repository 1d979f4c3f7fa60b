"""A pooled sweep must be a deterministic drop-in for the serial one.

Experiment sweeps are fanned out across worker processes by
:func:`repro.sweep.run_sweep`; results must be identical (content and
order) regardless of worker count, and worker exceptions must surface
in the parent rather than vanish.
"""

from __future__ import annotations

import pytest

from repro.errors import SweepCellError
from repro.sweep import SweepCell, SweepSpec, default_sweep_workers, run_sweep


def _square(x: int) -> int:  # module-level: must be picklable
    return x * x


def _simulate_cell(seed: int) -> list[int]:
    """A tiny seed-keyed 'simulation': pure function of its input."""
    import random

    rng = random.Random(seed)
    return [seed, rng.randrange(10**9)]


def _boom(x: int) -> int:
    if x == 3:
        raise ValueError("injected failure")
    return x


def _map(worker, items, workers, key="x"):
    cells = [SweepCell("test.determinism", {key: i}) for i in items]
    return run_sweep(SweepSpec(worker=worker, cells=cells), workers=workers).values


@pytest.mark.parametrize("workers", (1, 2, 4))
def test_results_match_serial_map_in_order(workers):
    items = list(range(12))
    assert _map(_square, items, workers=workers) == [_square(i) for i in items]


def test_worker_count_does_not_change_results():
    seeds = list(range(8))
    runs = {
        w: _map(_simulate_cell, seeds, workers=w, key="seed") for w in (1, 2, 4)
    }
    assert runs[1] == runs[2] == runs[4]


@pytest.mark.parametrize("workers", (1, 4))
def test_exceptions_propagate_with_failing_cell(workers):
    with pytest.raises(SweepCellError, match="injected failure") as info:
        _map(_boom, list(range(6)), workers=workers)
    # The error names the exact cell that died, not just the sweep.
    assert info.value.params == {"x": 3}
    assert "3" in str(info.value)
    assert isinstance(info.value.__cause__, ValueError)


def test_degenerate_inputs():
    assert _map(_square, [], workers=4) == []
    assert _map(_square, [7], workers=4) == [49]


def test_default_workers_is_positive():
    assert default_sweep_workers() >= 1
