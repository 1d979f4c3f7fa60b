"""Simulated UNIX kernel substrate.

This package models the parts of a 4.4BSD/FreeBSD-4.x kernel that the
ALPS paper's behaviour depends on:

* a decay-usage scheduler (``estcpu`` charged per statclock tick while
  running, decayed once per second by a load-dependent filter, priority
  recomputed as ``PUSER + estcpu/4 + 2*nice``),
* 100 ms round-robin among equal-priority processes,
* sleep/wakeup with wait channels (visible to user level, as via kvm),
* job-control signals (SIGSTOP/SIGCONT) — the mechanism ALPS uses to
  make processes ineligible/eligible,
* per-process CPU-time accounting (getrusage), and
* a one-minute load average.

The kernel runs on top of :class:`repro.sim.Engine`; simulated processes
express their work as :class:`~repro.kernel.behaviors.Behavior` objects
that emit :mod:`~repro.kernel.actions`.
"""

from repro.kernel.actions import Compute, Exit, Sleep, SleepOn
from repro.kernel.behaviors import Behavior, GeneratorBehavior, behavior
from repro.kernel.cfs import CfsKernel
from repro.kernel.kapi import KernelAPI
from repro.kernel.kconfig import KERNEL_BACKENDS, KernelConfig
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process, ProcState
from repro.kernel.signals import SIGCONT, SIGKILL, SIGSTOP


def make_kernel(engine, config: KernelConfig = None) -> Kernel:
    """Build the kernel implementation selected by ``config.backend``.

    ``"strict"`` and ``"optimized"`` both map to :class:`Kernel` (with
    the matching eager/lazy bookkeeping); ``"batch"`` maps to the
    struct-of-arrays :class:`repro.kernel.batch.BatchKernel`;
    ``"resident"`` maps to :class:`repro.kernel.resident.ResidentKernel`
    (arrays as the authoritative state, PCBs as views).  The batch and
    resident modules are imported only when selected.
    """
    from dataclasses import replace

    from repro.kernel.kconfig import DEFAULT_CONFIG

    if config is None:
        config = DEFAULT_CONFIG
    backend = config.resolve_backend()
    if backend == "batch":
        from repro.kernel.batch import BatchKernel

        return BatchKernel(engine, config)
    if backend == "resident":
        from repro.kernel.resident import ResidentKernel

        return ResidentKernel(engine, config)
    if backend == "strict" and not config.strict:
        config = replace(config, strict=True)
    elif backend == "optimized" and config.strict:
        config = replace(config, strict=False)
    return Kernel(engine, config)


__all__ = [
    "Behavior",
    "CfsKernel",
    "Compute",
    "Exit",
    "GeneratorBehavior",
    "KERNEL_BACKENDS",
    "Kernel",
    "KernelAPI",
    "KernelConfig",
    "Process",
    "ProcState",
    "SIGCONT",
    "SIGKILL",
    "SIGSTOP",
    "Sleep",
    "SleepOn",
    "behavior",
    "make_kernel",
]
