"""Deterministic fault injection for the ALPS reproduction.

The seed reproduction exercised only the happy path; a production
resource manager must absorb process churn, lost signals, failed
accounting reads, and its own stalls and crashes.  This package makes
those failures a first-class, *reproducible* input: a seeded
:class:`FaultPlan` describes what goes wrong, a :class:`FaultInjector`
enacts it against the simulated kernel, and the agent's recovery paths
(:mod:`repro.alps.agent`) turn graceful degradation into a measurable
curve (:mod:`repro.experiments.robustness`).

See ``docs/fault_model.md`` for the fault taxonomy and the determinism
contract.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "AgentCrash": "repro.faults.plan",
    "AgentStall": "repro.faults.plan",
    "CellCrash": "repro.faults.plan",
    "FaultInjector": "repro.faults.injector",
    "FaultPlan": "repro.faults.plan",
    "FaultRecord": "repro.faults.plan",
    "FaultyKernelAPI": "repro.faults.injector",
    "ForkStorm": "repro.faults.plan",
    "MigrationTear": "repro.faults.plan",
    "ProcessCrash": "repro.faults.plan",
    "default_fault_plan": "repro.faults.plan",
})
