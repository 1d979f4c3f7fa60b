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

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "Behavior": "repro.kernel.behaviors",
    "CfsKernel": "repro.kernel.cfs",
    "Compute": "repro.kernel.actions",
    "Exit": "repro.kernel.actions",
    "GeneratorBehavior": "repro.kernel.behaviors",
    "KERNEL_BACKENDS": "repro.kernel.kconfig",
    "Kernel": "repro.kernel.kernel",
    "KernelAPI": "repro.kernel.kapi",
    "KernelConfig": "repro.kernel.kconfig",
    "Process": "repro.kernel.process",
    "ProcState": "repro.kernel.process",
    "SIGCONT": "repro.kernel.signals",
    "SIGKILL": "repro.kernel.signals",
    "SIGSTOP": "repro.kernel.signals",
    "Sleep": "repro.kernel.actions",
    "SleepOn": "repro.kernel.actions",
    "behavior": "repro.kernel.behaviors",
    "make_kernel": "repro.kernel.kconfig",
})
