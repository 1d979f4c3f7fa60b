"""One table of every ``repro`` symbol the ledger touches, resolved lazily.

The ledger judges refactors, so it must survive them: nothing here is
imported until first use, and a missing target raises
:class:`MissingTarget`, which the per-layer code turns into a ``null``
metric with a ``skipped`` note.  End-to-end workloads let it propagate —
they may not be skipped.
"""

from __future__ import annotations

import importlib
from typing import Any

#: name -> (module, attribute).  Edit here when ``repro`` moves a symbol.
TABLE: dict[str, tuple[str, str]] = {
    # entry points the workloads drive
    "build_controlled_workload": ("repro", "build_controlled_workload"),
    "AlpsConfig": ("repro", "AlpsConfig"),
    "Engine": ("repro", "Engine"),
    "make_kernel": ("repro.kernel", "make_kernel"),
    "KERNEL_BACKENDS": ("repro.kernel", "KERNEL_BACKENDS"),
    "KernelConfig": ("repro.kernel", "KernelConfig"),
    "scalability_sweep": ("repro.experiments.scalability", "scalability_sweep"),
    "run_webserver_experiment": (
        "repro.experiments.webserver", "run_webserver_experiment",
    ),
    "run_chaos_campaign": ("repro.resilience.chaos", "run_chaos_campaign"),
    # inputs and simulated statistics
    "DISTRIBUTIONS": ("repro.workloads.shares", "DISTRIBUTIONS"),
    "workload_shares": ("repro", "workload_shares"),
    "spinner_behavior": ("repro.workloads.spinner", "spinner_behavior"),
    "mean_rms_relative_error": (
        "repro.metrics.accuracy", "mean_rms_relative_error",
    ),
    # optional layers
    "Observer": ("repro", "Observer"),
    "MemoryJournal": ("repro.resilience.journal", "MemoryJournal"),
    "Supervisor": ("repro.resilience.supervisor", "Supervisor"),
    "RestartPolicy": ("repro.resilience.supervisor", "RestartPolicy"),
    "OverloadGuard": ("repro.overload", "OverloadGuard"),
    "ShareTree": ("repro", "ShareTree"),
    "FaultPlan": ("repro.faults.plan", "FaultPlan"),
    "default_fault_plan": ("repro.faults", "default_fault_plan"),
    # micro targets
    "AlpsCore": ("repro", "AlpsCore"),
    "SIGSTOP": ("repro.kernel", "SIGSTOP"),
    "SIGCONT": ("repro.kernel", "SIGCONT"),
    "SweepCache": ("repro.sweep", "SweepCache"),
    "SweepCell": ("repro.sweep", "SweepCell"),
    "SweepSpec": ("repro.sweep", "SweepSpec"),
    "run_sweep": ("repro.sweep", "run_sweep"),
    "cache_key": ("repro.sweep", "cache_key"),
    "code_fingerprint": ("repro.sweep", "code_fingerprint"),
    "ACTIVE_IMPL": ("repro.sim.fastloop", "ACTIVE_IMPL"),
}


class MissingTarget(LookupError):
    """A ``repro`` symbol the ledger wanted no longer resolves."""


def sym(name: str) -> Any:
    """Resolve ``name`` through :data:`TABLE` (import on first use)."""
    module_name, attr = TABLE[name]
    try:
        return getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError) as exc:
        raise MissingTarget(f"{module_name}.{attr}: {exc}") from exc
