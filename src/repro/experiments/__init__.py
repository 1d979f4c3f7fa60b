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

from repro.experiments.accuracy import AccuracyPoint, run_accuracy_point
from repro.experiments.io import IoExperimentResult, run_io_experiment
from repro.experiments.multi import MultiAlpsResult, run_multi_alps_experiment
from repro.experiments.overhead import OverheadPoint, run_overhead_point
from repro.experiments.scalability import ScalabilityPoint, scalability_sweep

__all__ = [
    "AccuracyPoint",
    "IoExperimentResult",
    "MultiAlpsResult",
    "OverheadPoint",
    "ScalabilityPoint",
    "run_accuracy_point",
    "run_io_experiment",
    "run_multi_alps_experiment",
    "run_overhead_point",
    "scalability_sweep",
]
