"""Reproduction of *ALPS: An Application-Level Proportional-Share
Scheduler* (Newhouse & Pasquale, HPDC 2006).

ALPS is a user-level, unprivileged, per-application proportional-share
CPU scheduler: it periodically samples the CPU consumption of the
processes it controls and SIGSTOP/SIGCONTs them so that, over each
*cycle*, every process receives CPU time in proportion to its share —
while the unmodified kernel scheduler does all fine-grained time
slicing.

This package provides:

* the ALPS algorithm and agents (:mod:`repro.alps`),
* a simulated 4.4BSD-style UNIX kernel to run them on
  (:mod:`repro.kernel` over :mod:`repro.sim`),
* a real-Linux backend (:mod:`repro.hostos`),
* the paper's workloads, web-server case study, baselines, metrics,
  and one experiment runner per table/figure
  (:mod:`repro.workloads`, :mod:`repro.webserver`,
  :mod:`repro.baselines`, :mod:`repro.metrics`,
  :mod:`repro.experiments`).

Quickstart::

    from repro import AlpsConfig, build_controlled_workload, ms, sec
    from repro.metrics import per_subject_fractions

    cw = build_controlled_workload([1, 2, 3], AlpsConfig(quantum_us=ms(10)))
    cw.engine.run_until(sec(30))
    print(per_subject_fractions(cw.agent.cycle_log, skip=5))
"""

from repro._surface import lazy_surface

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "AlpsAgent": "repro.alps.agent",
    "AlpsConfig": "repro.alps.config",
    "AlpsCore": "repro.alps.algorithm",
    "CostModel": "repro.alps.costs",
    "CycleLog": "repro.alps.instrumentation",
    "CycleRecord": "repro.alps.instrumentation",
    "Engine": "repro.sim.engine",
    "Kernel": "repro.kernel.kernel",
    "KernelConfig": "repro.kernel.kconfig",
    "MSEC": "repro.units",
    "Observer": "repro.obs.observer",
    "ProcessSubject": "repro.alps.subjects",
    "SEC": "repro.units",
    "ShardedAlpsPlane": "repro.sharetree.plane",
    "ShareDistribution": "repro.workloads.shares",
    "ShareTree": "repro.sharetree.tree",
    "USEC": "repro.units",
    "UserSubject": "repro.alps.subjects",
    "build_controlled_workload": "repro.workloads.scenarios",
    "build_multi_alps_scenario": "repro.workloads.scenarios",
    "ms": "repro.units",
    "sec": "repro.units",
    "spawn_alps": "repro.alps.agent",
    "usec": "repro.units",
    "workload_shares": "repro.workloads.shares",
})
__all__.append("__version__")
