"""Figure 4 — Accuracy: mean RMS relative error vs quantum length.

Regenerates the figure's nine series (Table 2 workloads) over quantum
lengths.  Reproduction targets: most workloads under 5 % error; skewed
highest and rising with the quantum; equal/linear flat and low.

The sweep is the ``fig4`` row's quick protocol (fewer cycles/seeds
than the paper's 200×3; ``repro run fig4 --full`` is the paper-exact
run).
"""

from benchmarks.conftest import reproduce
from repro.experiments.registry import FIG4
from repro.workloads.shares import ShareDistribution

SIZES = (5, 10, 20)


def test_figure4_accuracy_sweep(benchmark, results_dir):
    points = reproduce(benchmark, results_dir, FIG4, "fig4_accuracy.csv")

    # Shape assertions (the reproduction claims).
    err = {
        (p.model, p.n, p.quantum_ms): p.mean_rms_error_pct for p in points
    }
    # Most workloads < 5 %: all equal/linear cells.
    low_cells = [
        v
        for (m, n, q), v in err.items()
        if m in (ShareDistribution.EQUAL, ShareDistribution.LINEAR)
    ]
    assert sum(v < 6.0 for v in low_cells) >= 0.8 * len(low_cells)
    # Skewed is the worst family at the largest quantum.
    for n in SIZES:
        assert err[(ShareDistribution.SKEWED, n, 40)] >= max(
            err[(ShareDistribution.EQUAL, n, 40)],
            err[(ShareDistribution.LINEAR, n, 40)],
        )
    # Skewed error falls as the quantum shrinks (paper's §3.1 claim).
    assert err[(ShareDistribution.SKEWED, 20, 10)] < err[
        (ShareDistribution.SKEWED, 20, 40)
    ]
