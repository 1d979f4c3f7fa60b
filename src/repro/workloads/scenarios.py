"""Assembled simulation scenarios.

``build_controlled_workload`` wires the common case — one kernel, one
ALPS, N compute-bound processes with given shares — and is the basis of
the Figure 4/5/8/9 experiments.  ``build_multi_alps_scenario`` builds
the Section 4.1 three-application phased experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.alps.agent import AlpsAgent, spawn_alps
from repro.alps.config import AlpsConfig
from repro.alps.subjects import ProcessSubject
from repro.kernel.behaviors import Behavior
from repro.kernel.kconfig import DEFAULT_CONFIG, KernelConfig, make_kernel
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.sim.engine import Engine
from repro.sim.trace import Tracer
from repro.workloads.spinner import spinner_behavior

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.obs.observer import Observer
    from repro.overload.guard import OverloadGuard
    from repro.perf.counters import PerfCounters
    from repro.resilience.journal import MemoryJournal
    from repro.resilience.supervisor import Supervisor
    from repro.sharetree.tree import ShareTree


@dataclass(slots=True)
class ControlledWorkload:
    """One ALPS controlling one group of processes."""

    engine: Engine
    kernel: Kernel
    alps_proc: Process
    agent: AlpsAgent
    workers: list[Process]
    shares: list[int]
    #: Present when the workload runs under a fault plan.
    injector: Optional[FaultInjector] = None
    #: Present when the workload was built with an observability handle
    #: (``build_controlled_workload(observer=...)``).
    observer: Optional["Observer"] = None
    #: Present when the agent journals its state (crash safety).
    journal: Optional["MemoryJournal"] = None
    #: Present when the agent runs under a supervision wrapper.
    supervisor: Optional["Supervisor"] = None
    #: Present when the agent runs with overload protection
    #: (``build_controlled_workload(overload=...)``).
    overload: Optional["OverloadGuard"] = None
    #: Present when the agent resolves shares from a hierarchical share
    #: tree (``build_controlled_workload(sharetree=...)``).
    sharetree: Optional["ShareTree"] = None

    @property
    def total_shares(self) -> int:
        """Sum of the group's shares."""
        return sum(self.shares)

    def overhead_fraction(self, *, since: int = 0) -> float:
        """ALPS CPU time / wall time, the paper's overhead metric."""
        elapsed = self.kernel.now - since
        if elapsed <= 0:
            return 0.0
        return self.kernel.getrusage(self.alps_proc.pid) / elapsed


KernelFactory = Callable[[Engine, KernelConfig], Kernel]


def build_controlled_workload(
    shares: Sequence[int],
    alps_config: AlpsConfig,
    *,
    seed: int = 0,
    kernel_config: KernelConfig = DEFAULT_CONFIG,
    behaviors: Optional[Sequence[Behavior]] = None,
    alps_start_delay: int = 0,
    kernel_factory: KernelFactory = make_kernel,
    fault_plan: Optional[FaultPlan] = None,
    tracer: Optional[Tracer] = None,
    counters: Optional["PerfCounters"] = None,
    observer: Optional["Observer"] = None,
    journal: Optional["MemoryJournal"] = None,
    supervisor: Optional["Supervisor"] = None,
    overload: Optional["OverloadGuard"] = None,
    sharetree: Optional["ShareTree"] = None,
) -> ControlledWorkload:
    """Create a kernel with N workers under one ALPS.

    ``behaviors`` overrides the default all-spinner workload (used by
    the I/O experiment to make one process block periodically);
    ``kernel_factory`` selects the kernel policy (e.g.
    :class:`~repro.kernel.cfs.CfsKernel` for the portability study) —
    the default dispatches on ``kernel_config.backend`` through
    :func:`repro.kernel.make_kernel`, so ``backend="batch"`` selects
    the struct-of-arrays batch kernel with no other changes.
    ``fault_plan`` runs the whole workload under deterministic fault
    injection (docs/fault_model.md); a null/omitted plan is the exact
    clean path.  ``tracer`` attaches an event tracer to the engine (the
    differential equivalence harness compares its output byte-for-byte
    between kernel fast paths); ``counters`` attaches perf counters.
    ``observer`` attaches a :class:`repro.obs.Observer` to every layer —
    engine run accounting, kernel context-switch/signal events, and the
    agent's quantum/eligibility/cycle events and cost spans — without
    perturbing the schedule (docs/observability.md).  ``journal``
    attaches a write-ahead state journal to the agent (crash safety,
    docs/resilience.md; the injector's journal-write faults are wired as
    its fault hook when both are present); ``supervisor`` hosts the
    agent behind the supervision wrapper (heartbeats, backoff restarts,
    degraded-mode stand-down), which subsumes the plain fault wrapper.
    ``overload`` arms the overload-protection layer — admission control,
    starvation detection, and the graceful-degradation ladder
    (docs/overload.md); the injector's arrival storms and nice bombs
    require it to be meaningful but do not require it.
    ``sharetree`` attaches a hierarchical :class:`ShareTree` whose
    leaves carry the same sids as the built subjects; the agent resolves
    each subject's effective share from the tree (docs/share_tree.md).
    A flat one-level tree built from the same shares is schedule
    invisible — the tree resolves to the raw shares verbatim.
    """
    engine = Engine(seed=seed, tracer=tracer, counters=counters, observer=observer)
    kernel = kernel_factory(engine, kernel_config)
    if observer is not None:
        kernel.attach_observer(observer)
    workers: list[Process] = []
    for i, share in enumerate(shares):
        beh = behaviors[i] if behaviors is not None else spinner_behavior()
        workers.append(kernel.spawn(f"w{i}", beh, uid=100 + i))
    subjects = [
        ProcessSubject(sid=i, share=share, pid=workers[i].pid)
        for i, share in enumerate(shares)
    ]
    injector: Optional[FaultInjector] = None
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(fault_plan, engine, kernel)
        injector.arm([w.pid for w in workers])
    if journal is not None and injector is not None and journal.fault_hook is None:
        journal.fault_hook = injector.journal_fault_hook()
    alps_proc, agent = spawn_alps(
        kernel,
        subjects,
        alps_config,
        start_delay=alps_start_delay,
        injector=injector,
        journal=journal,
        supervisor=supervisor,
        overload=overload,
        sharetree=sharetree,
    )
    if injector is not None:
        injector.arm_agent(agent, alps_proc.pid)
    return ControlledWorkload(
        engine=engine,
        kernel=kernel,
        alps_proc=alps_proc,
        agent=agent,
        workers=workers,
        shares=list(shares),
        injector=injector,
        observer=observer,
        journal=journal,
        supervisor=supervisor,
        overload=overload,
        sharetree=sharetree,
    )


@dataclass(slots=True)
class MultiAlpsScenario:
    """Section 4.1: several independent ALPSs on one kernel."""

    engine: Engine
    kernel: Kernel
    groups: list[ControlledWorkloadGroup] = field(default_factory=list)


@dataclass(slots=True)
class ControlledWorkloadGroup:
    """One application (ALPS + workers) within a multi-ALPS scenario."""

    label: str
    alps_proc: Process
    agent: AlpsAgent
    workers: list[Process]
    shares: list[int]
    start_time: int


def build_multi_alps_scenario(
    group_specs: Sequence[tuple[str, Sequence[int], int]],
    alps_config: AlpsConfig,
    *,
    seed: int = 0,
    kernel_config: KernelConfig = DEFAULT_CONFIG,
) -> MultiAlpsScenario:
    """Build several (label, shares, start_time_us) groups, each with its
    own ALPS process, all contending under one kernel scheduler."""
    engine = Engine(seed=seed)
    kernel = make_kernel(engine, kernel_config)
    scenario = MultiAlpsScenario(engine=engine, kernel=kernel)
    for label, shares, start in group_specs:
        workers = [
            kernel.spawn(
                f"{label}{i}", spinner_behavior(), uid=0, start_delay=start
            )
            for i in range(len(shares))
        ]
        subjects = [
            ProcessSubject(sid=i, share=share, pid=workers[i].pid)
            for i, share in enumerate(shares)
        ]
        alps_proc, agent = spawn_alps(
            kernel,
            subjects,
            alps_config,
            name=f"alps-{label}",
            start_delay=start,
        )
        scenario.groups.append(
            ControlledWorkloadGroup(
                label=label,
                alps_proc=alps_proc,
                agent=agent,
                workers=workers,
                shares=list(shares),
                start_time=start,
            )
        )
    return scenario
