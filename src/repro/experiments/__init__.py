"""Experiment runners: one module per paper table/figure.

============  =========================================================
Module         Paper artifact (``repro run`` id)
============  =========================================================
table1_ops     Table 1 — ALPS primary operation costs (``table1``)
accuracy       Figure 4 — accuracy vs quantum length (``fig4``)
overhead       Figure 5 — overhead vs workload (``fig5``), and the
               §2.3/§3.2 measurement-postponement ablation
               (``ablation``)
io             Figure 6 — I/O redistribution timeline (``fig6``)
multi          Figure 7 + Table 3 — multiple concurrent ALPSs (``fig7``)
scalability    Figures 8/9 + §4.2 breakdown thresholds (``fig8``)
webserver      Section 5 — shared web server isolation (``sec5``)
overload       bounded degradation past the §4.2 knee (``overload``)
sharetree      Gunther's "shares bound ratios, not guarantees"
               (``sharetree``)
robustness     accuracy under injected faults (benchmark only)
sensitivity    breakdown knee vs agent cost scale (benchmark only)
============  =========================================================

Every runner is deterministic given its seed(s) and returns plain
dataclasses.  :mod:`repro.experiments.registry` holds one row per
``repro run`` id: the grid of cells, the table the CLI prints and the
CSV rows, which ``repro run``, ``repro report``
(:mod:`repro.experiments.report`) and the ``benchmarks/bench_*.py``
files all use.  :mod:`repro.experiments.common` holds the shared
``run_for_cycles`` loop.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "AccuracyPoint": "repro.experiments.accuracy",
    "IoExperimentResult": "repro.experiments.io",
    "MultiAlpsResult": "repro.experiments.multi",
    "OverheadPoint": "repro.experiments.overhead",
    "ScalabilityPoint": "repro.experiments.scalability",
    "run_accuracy_point": "repro.experiments.accuracy",
    "run_io_experiment": "repro.experiments.io",
    "run_multi_alps_experiment": "repro.experiments.multi",
    "run_overhead_point": "repro.experiments.overhead",
    "scalability_sweep": "repro.experiments.scalability",
})
