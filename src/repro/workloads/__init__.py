"""Workload generators used by the paper's evaluation.

* :mod:`~repro.workloads.shares` — the Table 2 share distributions
  (linear / equal / skewed over 5, 10, 20 processes).
* :mod:`~repro.workloads.spinner` — compute-bound processes.
* :mod:`~repro.workloads.io_pattern` — the Section 3.3 compute/sleep
  I/O simulation.
* :mod:`~repro.workloads.scenarios` — assembled scenarios: one ALPS
  over one workload, the Section 4.1 phased multi-ALPS experiment, and
  the Section 4.2 scalability sweep configuration.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "ControlledWorkload": "repro.workloads.scenarios",
    "DISTRIBUTIONS": "repro.workloads.shares",
    "MultiAlpsScenario": "repro.workloads.scenarios",
    "ShareDistribution": "repro.workloads.shares",
    "build_controlled_workload": "repro.workloads.scenarios",
    "build_multi_alps_scenario": "repro.workloads.scenarios",
    "compute_sleep_behavior": "repro.workloads.io_pattern",
    "equal_shares": "repro.workloads.shares",
    "linear_shares": "repro.workloads.shares",
    "normalize_shares": "repro.workloads.shares",
    "skewed_shares": "repro.workloads.shares",
    "spinner_behavior": "repro.workloads.spinner",
    "workload_shares": "repro.workloads.shares",
})
