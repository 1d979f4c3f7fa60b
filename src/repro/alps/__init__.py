"""ALPS: the Application-Level Proportional-Share Scheduler.

This package implements the paper's contribution:

* :mod:`~repro.alps.algorithm` — the core scheduling algorithm of
  Figure 3 (allowances, cycles, the measurement-postponement
  optimization, and blocked-process accounting), as a pure state
  machine independent of any execution substrate.
* :mod:`~repro.alps.subjects` — the resource principals ALPS schedules:
  single processes (Sections 2–4), whole users or explicit pid sets
  (Section 5).
* :mod:`~repro.alps.agent` — the ALPS *process* for the simulated
  kernel: an unprivileged process that wakes every quantum, pays the
  Table 1 operation costs in CPU time, samples progress, and signals.
* :mod:`~repro.alps.costs` — the Table 1 cost model.
* :mod:`~repro.alps.instrumentation` — per-cycle consumption logs used
  by the accuracy metrics.

The same :class:`~repro.alps.algorithm.AlpsCore` also drives the
real-Linux controller in :mod:`repro.hostos`.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "AlpsAgent": "repro.alps.agent",
    "AlpsConfig": "repro.alps.config",
    "AlpsCore": "repro.alps.algorithm",
    "CostAccumulator": "repro.alps.costs",
    "CostModel": "repro.alps.costs",
    "CycleLog": "repro.alps.instrumentation",
    "CycleRecord": "repro.alps.instrumentation",
    "PidGroupSubject": "repro.alps.subjects",
    "ProcessSubject": "repro.alps.subjects",
    "QuantumDecisions": "repro.alps.algorithm",
    "Subject": "repro.alps.subjects",
    "SubjectState": "repro.alps.state",
    "UserSubject": "repro.alps.subjects",
})
