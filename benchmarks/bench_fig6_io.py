"""Figure 6 — I/O: proportional redistribution when a process blocks.

Three processes with shares 1:2:3 at a 10 ms quantum; the 2-share
process alternates 80 ms of CPU with 240 ms of sleep after a warm-up.
Reproduction targets: steady state ≈ 16.7/33.3/50 %; while the 2-share
process is blocked the others split ≈ 25/75 %.
"""

import pytest

from benchmarks.conftest import reproduce
from repro.experiments.registry import FIG6


def test_figure6_io_redistribution(benchmark, results_dir):
    (result,) = reproduce(
        benchmark, results_dir, FIG6, "fig6_io.csv",
        cells=FIG6.cells(total_cycles=900),
    )

    steady = result.mean_shares(result.steady_mask)
    blocked = result.mean_shares(result.blocked_mask)

    assert steady[0] == pytest.approx(100 / 6, abs=2.0)
    assert steady[1] == pytest.approx(200 / 6, abs=2.0)
    assert steady[2] == pytest.approx(300 / 6, abs=2.0)
    assert blocked[0] == pytest.approx(25.0, abs=4.0)
    assert blocked[2] == pytest.approx(75.0, abs=6.0)
    assert blocked[1] < 12.0
