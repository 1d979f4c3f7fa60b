"""Figures 8/9 + Section 4.2 — scalability and the breakdown threshold.

Equal-share workloads (5 shares/process) growing until ALPS loses
control, at Q ∈ {10, 20, 40} ms.  Reproduction targets: overhead rises
linearly then flattens below ~2.5 %; error is low until a knee; knees
are ordered Q=10 < Q=20 < Q=40; the analytic prediction
``U_Q(N*) = 100/(N*+1)`` lands near the observed knee (paper: predicted
39/54/75, observed 40/60/90).

The sweep is the ``fig8`` row's full grid (N up to 120) at 25 cycles
per cell and a 180 s simulated-time bound.
"""

from benchmarks.conftest import reproduce
from repro.experiments.registry import FIG8
from repro.experiments.scalability import analyze_breakdown


def test_figures8_9_scalability(benchmark, results_dir):
    points = reproduce(
        benchmark, results_dir, FIG8, "fig8_fig9_scalability.csv",
        cells=FIG8.cells(full=True, cycles=25, max_wall_s=180.0),
    )
    analyses = analyze_breakdown(points)

    # Shape assertions.
    ov = {(p.quantum_ms, p.n): p.overhead_pct for p in points}
    err = {(p.quantum_ms, p.n): p.mean_rms_error_pct for p in points}
    assert all(v < 3.0 for v in ov.values())  # paper: <= 2.5 %
    # Low error before the knee, explosion after, for Q=10.
    assert err[(10, 10)] < 12.0
    assert err[(10, 80)] > 25.0
    # Knees ordered by quantum: at N=60, Q=10 is broken, Q=40 is not.
    assert err[(10, 60)] > err[(40, 60)]
    # Predicted thresholds ordered and in plausible bands.
    by_q = {a.quantum_ms: a for a in analyses}
    assert by_q[10].predicted_n < by_q[20].predicted_n < by_q[40].predicted_n
    assert 20 <= by_q[10].predicted_n <= 70
