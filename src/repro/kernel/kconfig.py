"""Kernel tuning constants (FreeBSD 4.x defaults).

The values mirror the scheduler parameters of the paper's host OS
(FreeBSD 4.8): hz = stathz = 100 (10 ms ticks), a 100 ms round-robin
slice, per-second ``schedcpu`` decay, and the classic BSD priority
formula ``p_usrpri = PUSER + p_estcpu / 4 + 2 * p_nice``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.units import MSEC, SEC

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel

#: Valid values of :attr:`KernelConfig.backend` besides ``"auto"``.
KERNEL_BACKENDS = frozenset({"strict", "optimized", "batch", "resident"})


@dataclass(slots=True, frozen=True)
class KernelConfig:
    """Tunable parameters of the simulated kernel.

    Attributes:
        tick_us: statclock/hardclock period; ``estcpu`` is charged one
            unit per tick of CPU consumed.
        slice_us: ``roundrobin()`` period — how often the kernel forces a
            switch among runnable processes of equal priority.
        schedclock_us: how often the *running* process's priority is
            recomputed from its accrued ``estcpu`` (FreeBSD recomputes
            every 4 statclock ticks).
        schedcpu_us: period of the per-second decay filter.
        ctx_switch_us: time lost to a context switch (charged to neither
            process).
        sleep_priority: kernel priority granted to a process waking from
            a voluntary sleep (tsleep); it holds until first dispatch,
            letting woken processes preempt user-mode work immediately —
            the mechanism that makes a low-usage ALPS prompt.
        puser: base user-mode priority.
        maxpri: worst (numerically largest) priority.
        estcpu_weight: divisor in the priority formula (4 in BSD).
        nice_weight: multiplier for nice in the priority formula (2 in BSD).
        loadavg_interval_us: how often the load average EWMA is updated.
        loadavg_tau_us: EWMA time constant (one minute, as in loadavg[0]).
    """

    #: Number of CPUs.  The paper's testbed is a uniprocessor; values
    #: above 1 enable the SMP extension.
    ncpus: int = 1
    tick_us: int = 10 * MSEC
    #: Timer-callout resolution: sleep deadlines round up to this grid.
    callout_resolution_us: int = 1 * MSEC
    slice_us: int = 100 * MSEC
    schedclock_us: int = 40 * MSEC
    schedcpu_us: int = 1 * SEC
    ctx_switch_us: int = 5
    sleep_priority: int = 30
    puser: int = 50
    maxpri: int = 127
    estcpu_weight: int = 4
    nice_weight: int = 2
    loadavg_interval_us: int = 5 * SEC
    loadavg_tau_us: int = 60 * SEC
    #: Disable the schedule-invisible fast paths (lazy estcpu decay for
    #: sleepers, idle housekeeping skip) and run the original eager
    #: per-second loop instead.  The differential test harness runs both
    #: paths and asserts byte-identical schedules; production runs leave
    #: this False.
    strict: bool = False
    #: Scheduler backend: ``"auto"`` resolves to ``"strict"`` or
    #: ``"optimized"`` from :attr:`strict`; ``"batch"`` selects the
    #: struct-of-arrays :class:`~repro.kernel.batch.BatchKernel`
    #: (vectorized decay, batched priority recomputation, fused
    #: same-instant event stepping); ``"resident"`` selects
    #: :class:`~repro.kernel.resident.ResidentKernel`, where the arrays
    #: are the *authoritative* state and PCBs are thin views onto their
    #: row (no per-pass gather/scatter).  Every backend must produce
    #: byte-identical schedules — tests/perf/test_backend_matrix.py is
    #: the contract.
    backend: str = "auto"

    def resolve_backend(self) -> str:
        """The concrete backend name this config selects.

        ``"auto"`` defers to the legacy :attr:`strict` flag so existing
        call sites keep their exact behavior; any explicit name wins
        over ``strict``.
        """
        if self.backend == "auto":
            return "strict" if self.strict else "optimized"
        if self.backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"unknown kernel backend {self.backend!r}; "
                f"expected one of {sorted(KERNEL_BACKENDS)}"
            )
        return self.backend

    @property
    def estcpu_limit(self) -> float:
        """Clamp on ``estcpu`` so priority never exceeds :attr:`maxpri`."""
        return float((self.maxpri - self.puser) * self.estcpu_weight)


#: Default kernel configuration (FreeBSD 4.x-like).
DEFAULT_CONFIG = KernelConfig()


def make_kernel(engine, config: Optional[KernelConfig] = None) -> Kernel:
    """Build the kernel implementation selected by ``config.backend``.

    ``"strict"`` and ``"optimized"`` both map to
    :class:`~repro.kernel.kernel.Kernel` (with the matching eager/lazy
    bookkeeping); ``"batch"`` maps to the struct-of-arrays
    :class:`repro.kernel.batch.BatchKernel`; ``"resident"`` maps to
    :class:`repro.kernel.resident.ResidentKernel` (arrays as the
    authoritative state, PCBs as views).  Each kernel module is imported
    only when selected.
    """
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
    from repro.kernel.kernel import Kernel

    return Kernel(engine, config)
