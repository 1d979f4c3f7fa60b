"""Figure 5 — Overhead: fraction of time ALPS executes vs experiment
duration, across the Table 2 workloads at Q ∈ {10, 20, 40} ms.

Reproduction targets: overhead well under 1 % (paper: typically under
0.3 %), highest for equal-share distributions, growing as the quantum
shrinks and as the process count grows.
"""

from benchmarks.conftest import reproduce
from repro.experiments.registry import FIG5
from repro.workloads.shares import ShareDistribution

QUANTA_MS = (10, 20, 40)


def test_figure5_overhead_sweep(benchmark, results_dir):
    points = reproduce(benchmark, results_dir, FIG5, "fig5_overhead.csv")

    ov = {(p.model, p.n, p.quantum_ms): p.overhead_pct for p in points}
    # All cells under 1 % (paper: "in general, overhead is very low").
    assert all(v < 1.0 for v in ov.values())
    # Smaller quantum costs more, for every model at N=20.
    for model in ShareDistribution:
        assert ov[(model, 20, 10)] > ov[(model, 20, 40)]
    # Equal is the costliest model at N=20 (fewest early suspensions).
    for q in QUANTA_MS:
        assert ov[(ShareDistribution.EQUAL, 20, q)] >= max(
            ov[(ShareDistribution.SKEWED, 20, q)],
            ov[(ShareDistribution.LINEAR, 20, q)],
        )
    # Overhead grows with N at Q=10 for equal/linear; skewed is nearly
    # flat (most of its processes are suspended most of the time, so
    # the measured set barely grows with N).
    for model in (ShareDistribution.EQUAL, ShareDistribution.LINEAR):
        assert ov[(model, 20, 10)] > ov[(model, 5, 10)]
    assert ov[(ShareDistribution.SKEWED, 20, 10)] > 0.5 * ov[
        (ShareDistribution.SKEWED, 5, 10)
    ]
