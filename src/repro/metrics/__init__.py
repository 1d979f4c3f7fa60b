"""Accuracy, overhead, and scalability metrics from the paper.

* :mod:`~repro.metrics.accuracy` — per-cycle RMS relative error and its
  mean (Sections 3.1, 4.2).
* :mod:`~repro.metrics.overhead` — ALPS CPU / wall-time overhead and
  the linear overhead fits of Section 4.2.
* :mod:`~repro.metrics.regression` — cumulative-consumption slope fits
  (Section 4.1 / Table 3).
* :mod:`~repro.metrics.breakdown` — the analytic breakdown-threshold
  model ``U_Q(N*) = 100/(N*+1)`` of Section 4.2.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "LatencySummary": "repro.metrics.latency",
    "OverheadFit": "repro.metrics.overhead",
    "cycle_rms_relative_errors": "repro.metrics.accuracy",
    "fit_overhead_line": "repro.metrics.overhead",
    "mean_rms_relative_error": "repro.metrics.accuracy",
    "per_subject_fractions": "repro.metrics.accuracy",
    "phase_fractions": "repro.metrics.regression",
    "predicted_threshold": "repro.metrics.breakdown",
    "slope": "repro.metrics.regression",
    "summarize_latencies": "repro.metrics.latency",
})
