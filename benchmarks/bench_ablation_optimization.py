"""Ablation (§2.3 / §3.2) — the measurement-postponement optimization.

The paper: "this optimization reduces overhead by a factor of at least
1.8 and as much as 5.9, for the workloads that we tested."  This bench
runs the Table 2 workloads at Q = 10 ms with the optimization on and
off and reports the per-workload reduction factors.
"""

from benchmarks.conftest import reproduce
from repro.experiments.registry import ABLATION


def test_optimization_ablation(benchmark, results_dir):
    points = reproduce(
        benchmark, results_dir, ABLATION, "ablation_optimization.csv"
    )
    factors = [r["factor"] for r in ABLATION.csv_rows(points)]

    # Every workload benefits; the band overlaps the paper's 1.8–5.9×.
    assert all(f > 1.2 for f in factors)
    assert max(factors) > 1.8
