"""Seeded chaos campaigns with machine-checked invariants.

A *campaign* is a batch of independent *episodes*.  Each episode runs
the standard controlled workload with the full resilience stack on —
state journal, supervision wrapper, observability — under a seeded
:class:`~repro.faults.plan.FaultPlan` that mixes every fault kind the
injector knows, including journal write loss and torn journal writes,
plus agent crashes at fixed fractions of the horizon so journaled
recovery is exercised at every rate.  When the episode ends, the
invariants of :mod:`repro.resilience.invariants` are evaluated
*in-worker* over the final kernel state and obs event log, so a cached
episode carries its verdicts with it.

Three suites share this machinery.  The default ``resilience`` suite is
the crash/signal-loss campaign above.  The ``overload`` suite arms an
:class:`~repro.overload.guard.OverloadGuard` on the agent and cycles
three overload episode flavours on top of the base fault mix —
*arrival storms* that push the group well past the Section 4.2 knee
(and are reaped mid-episode so recovery can be audited), *agent
nice-bombs* that starve the scheduler itself, and *thousand-process
storms* against a bounded group, which exercise the admission queue at
depth without ever inflating the measurement set.  The two overload
invariants (bounded degraded slip, degrade-then-recover round trip)
have teeth only in this suite.

The ``plane`` suite targets the sharded control plane instead of a
single agent: a :class:`~repro.sharetree.plane.ShardedAlpsPlane` with
the :mod:`repro.sharetree.resilience` stack armed runs under
control-plane faults — within-budget cell crashes, migration tears in
both controller-crash and exception mode, and budget-exhausting crash
storms that force re-homing — while a scripted controller mutates
subtree weights to keep real migrations in flight.  It evaluates the
nine-invariant plane battery
(:func:`~repro.resilience.invariants.evaluate_plane_invariants`),
auditing the membership partition after every control step.

Episodes are :class:`~repro.sweep.scheduler.SweepCell`s dispatched
through :func:`~repro.sweep.scheduler.run_sweep`: campaigns parallelize
across cores, re-running a campaign is incremental, and equal seeds
produce byte-identical reports (the CLI determinism contract).

Surfaced as ``repro chaos run|report`` and gated in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Sequence

from repro.alps.config import AlpsConfig
from repro.errors import (
    InvariantViolation,
    MigrationTornError,
    NoSuchProcessError,
)
from repro.experiments.common import run_for_cycles
from repro.faults.plan import (
    AgentCrash,
    AgentNiceBomb,
    ArrivalStorm,
    CellCrash,
    FaultPlan,
    MigrationTear,
    default_fault_plan,
)
from repro.obs.observer import Observer
from repro.resilience.invariants import (
    DEFAULT_FAIRNESS_BASE_PCT,
    DEFAULT_FAIRNESS_SLOPE_PCT,
    InvariantResult,
    evaluate_episode_invariants,
    evaluate_plane_invariants,
)
from repro.overload import OverloadConfig, OverloadGuard
from repro.resilience.journal import MemoryJournal
from repro.resilience.supervisor import RestartPolicy, Supervisor
from repro.sweep.cache import SweepCache
from repro.sweep.scheduler import SweepCell, SweepSpec, run_sweep
from repro.units import ms
from repro.workloads.scenarios import build_controlled_workload

#: Sweep-cache experiment id of one chaos episode.
CHAOS_EXPERIMENT = "resilience.chaos"

#: Default fault rates cycled across a campaign's episodes — the same
#: rates the robustness benchmark sweeps (minus the fault-free point,
#: which chaos has nothing to check against).
DEFAULT_RATES = (0.02, 0.05, 0.1, 0.2)
#: Episodes per campaign.
DEFAULT_EPISODES = 8
#: Workload shares (S = 10, cycle = 10 Q — the Table 2 small case).
DEFAULT_SHARES = (1, 2, 3, 4)

#: The campaign suites (see module docstring).
SUITES = ("resilience", "overload", "plane")
#: Overload episode flavours, cycled across an overload campaign.
OVERLOAD_KINDS = ("storm", "nicebomb", "thousand")
#: Workload shares for overload episodes.  No share-1 member: storm
#: arrivals ask for share 1, so the shed selector (lowest share first)
#: releases storm processes before any original worker.
OVERLOAD_SHARES = (2, 3, 4, 5)
#: Fairness bound for overload episodes.  Wider than the resilience
#: suite's: a storm legitimately floods the group (and the thousand
#: flavour floods the whole host) for a quarter of the horizon, so the
#: workers' cumulative split genuinely loosens beyond what signal-level
#: faults alone would cost.
OVERLOAD_FAIRNESS_BASE_PCT = 12.0
OVERLOAD_FAIRNESS_SLOPE_PCT = 520.0

#: Plane episode flavours, cycled across a ``plane`` campaign:
#: within-budget cell crashes (journaled restarts), migration tears
#: (both controller-crash and exception mode), and budget-exhausting
#: crash storms that force a re-home onto surviving cells.
PLANE_KINDS = ("crash", "tear", "rehome")
#: Cells (= simulated CPUs) per plane episode.  Three cells over four
#: subtrees: every re-home has at least two survivors to choose from,
#: and the LPT partition genuinely moves subtrees as weights mutate.
PLANE_CELLS = 3
#: Fairness bound for plane episodes, audited over the *settle window*
#: (the fault-free final quarter of the horizon, after weight mutation
#: stops): worst per-cell renormalised deviation from the tree's
#: effective shares.  Wider than the single-agent suite's: a cell that
#: restarted or adopted re-homed subjects re-baselines mid-window.
PLANE_FAIRNESS_BASE_PCT = 25.0
PLANE_FAIRNESS_SLOPE_PCT = 320.0


def overload_guard_config(kind: str = "storm") -> OverloadConfig:
    """Guard tuning for chaos episodes.

    Chaos episodes differ from the past-the-knee experiment in two ways
    the defaults don't fit.  First, the base fault mix injects agent
    *stalls* (4-quanta oversleeps) at every rate: with the default
    1-quantum engage threshold every stall engages the ladder and the
    rung flaps for the whole episode, so the engage threshold rises
    above a single stall's EWMA spike — genuine breakdown outages are
    tens of quanta and still trip it instantly.  Second, horizons are
    seconds, so the recovery dwell shortens to let the
    degrade-then-recover round trip finish inside the episode once the
    injected load clears.

    The thousand flavour adds a hard membership capacity — its storm
    must *queue*, not degrade — and widens the slip bound to
    non-binding: a thousand-process best-effort herd starves *any*
    process at the kernel's whim, exactly like a nice-bomb, so its
    checked claim is the bounded queue (``admission_queued_peak``
    against an unchanged measurement set), not bounded slip.
    """
    capacity = 8 if kind == "thousand" else None
    slip_bound = 1024.0 if kind == "thousand" else 64.0
    return OverloadConfig(
        capacity=capacity,
        engage_slip_quanta=4.0,
        release_slip_quanta=0.5,
        release_dwell=20,
        max_degraded_slip_quanta=slip_bound,
    )


def overload_episode_plan(
    kind: str, fault_rate: float, *, seed: int, horizon_us: int
) -> FaultPlan:
    """One overload episode's plan: the resilience mix plus one flavour.

    Storms arrive at 1/4 of the horizon and are reaped a quarter of a
    horizon later, leaving the final half for the round-trip recovery
    the invariants audit; a nice-bomb runs for a sixth of the horizon.
    """
    plan = episode_plan(fault_rate, seed=seed, horizon_us=horizon_us)
    if kind == "storm":
        # Push the group well past the Section 4.2 knee.
        return replace(
            plan,
            arrival_storms=(
                ArrivalStorm(
                    time_us=horizon_us // 4,
                    count=48,
                    share=1,
                    lifetime_us=horizon_us // 4,
                ),
            ),
        )
    if kind == "nicebomb":
        return replace(
            plan,
            agent_nice_bombs=(
                AgentNiceBomb(
                    time_us=horizon_us // 4,
                    nice=16,
                    duration_us=horizon_us // 6,
                ),
            ),
        )
    if kind == "thousand":
        # A thousand arrivals against a capacity-8 group: the queue
        # absorbs what the measurement set must never see.
        return replace(
            plan,
            arrival_storms=(
                ArrivalStorm(
                    time_us=horizon_us // 4,
                    count=1000,
                    share=1,
                    lifetime_us=horizon_us // 4,
                ),
            ),
        )
    raise ValueError(f"unknown overload episode kind {kind!r}")


def episode_plan(
    fault_rate: float, *, seed: int, horizon_us: int
) -> FaultPlan:
    """One episode's fault plan: the standard mix plus journal faults.

    On top of :func:`~repro.faults.plan.default_fault_plan`, journal
    appends are lost with probability ``rate`` and torn with ``rate/2``,
    and two agent crashes are pinned at 1/3 and 2/3 of the horizon so
    journaled recovery runs in *every* episode, not only at high rates.
    """
    plan = default_fault_plan(
        fault_rate, seed=seed, horizon_us=horizon_us, agent_crash=False
    )
    if fault_rate == 0:
        return plan
    return replace(
        plan,
        journal_write_fail_prob=min(1.0, fault_rate),
        journal_torn_write_prob=min(1.0, fault_rate / 2),
        agent_crashes=(
            AgentCrash(time_us=horizon_us // 3),
            AgentCrash(time_us=2 * horizon_us // 3),
        ),
    )


def attained_error_pct(cw: Any) -> float:
    """Worst-subject relative deviation of attained CPU fractions (%).

    Cumulative kernel-accounted CPU per worker over the whole episode,
    as a fraction of the group total, against the share-proportional
    target.  Unlike the per-cycle RMS metric, this is the quantity
    journaled recovery actually protects: debt repayment deliberately
    skews individual post-crash cycles, but the *cumulative* split must
    converge back to the shares.  Dead workers (injected crashes) are
    excluded and the targets renormalised over the survivors.
    """
    kapi = cw.kernel.kapi
    attained: list[tuple[int, int]] = []  # (share, usage)
    for proc, share in zip(cw.workers, cw.shares):
        try:
            attained.append((share, kapi.getrusage(proc.pid)))
        except NoSuchProcessError:
            continue
    total_us = sum(usage for _, usage in attained)
    total_shares = sum(share for share, _ in attained)
    if total_us <= 0 or total_shares <= 0:
        return float("nan")
    worst = 0.0
    for share, usage in attained:
        target = share / total_shares
        deviation = abs(usage / total_us - target) / target
        worst = max(worst, deviation)
    return 100.0 * worst


# ---------------------------------------------------------------------------
# Plane suite: sharded-control-plane episodes (docs/share_tree.md)
# ---------------------------------------------------------------------------
def plane_episode_tree():
    """The plane suite's fixed share tree: four tenants, eight leaves.

    Weights 4:3:2:1 across subtrees with a 2:1 pair inside each, so the
    LPT partition over :data:`PLANE_CELLS` cells is non-trivial and a
    single weight mutation regularly moves a subtree between cells.
    """
    from repro.sharetree import ShareTree

    tree = ShareTree()
    sid = 0
    for i, weight in enumerate((4, 3, 2, 1)):
        name = f"t{i}"
        tree.group(name, weight)
        tree.leaf(f"{name}/w0", sid=sid, weight=2)
        tree.leaf(f"{name}/w1", sid=sid + 1, weight=1)
        sid += 2
    return tree


def plane_episode_plan(
    kind: str,
    fault_rate: float,
    *,
    horizon_us: int,
    restart_budget: int,
) -> FaultPlan:
    """One plane episode's control-plane fault plan.

    All flavours run the per-cell state journals with lossy/torn writes
    at the fault rate (so journaled cell restarts exercise recovery
    fallback too); on top of that ``crash`` pins one within-budget
    crash each on cells 0 and 1, ``tear`` pins a controller-crash tear
    and an exception-mode tear, and ``rehome`` hammers cell 0 with
    ``restart_budget + 2`` crashes so escalation *must* re-home its
    subtrees.  Every fault lands before the settle window (the final
    quarter of the horizon) so the fairness audit sees a quiet plane.
    """
    journal = (
        dict(
            journal_write_fail_prob=min(1.0, fault_rate),
            journal_torn_write_prob=min(1.0, fault_rate / 2),
        )
        if fault_rate > 0
        else {}
    )
    if kind == "crash":
        return FaultPlan(
            cell_crashes=(
                CellCrash(time_us=horizon_us // 3, cell=0),
                CellCrash(time_us=2 * horizon_us // 3, cell=1),
            ),
            **journal,
        )
    if kind == "tear":
        return FaultPlan(
            migration_tears=(
                MigrationTear(time_us=horizon_us // 3, after_ops=1, crash=True),
                MigrationTear(
                    time_us=2 * horizon_us // 3, after_ops=2, crash=False
                ),
            ),
            **journal,
        )
    if kind == "rehome":
        return FaultPlan(
            cell_crashes=tuple(
                CellCrash(
                    time_us=horizon_us // 4 + i * (horizon_us // 16), cell=0
                )
                for i in range(restart_budget + 2)
            ),
            **journal,
        )
    raise ValueError(f"unknown plane episode kind {kind!r}")


def audit_plane_partition(plane) -> tuple[list[str], list[str]]:
    """One control-step audit of the plane's membership partition.

    Returns ``(orphan_violations, atomicity_violations)``:
    *atomicity* — every leaf sid owned by exactly one cell (none lost,
    duplicated, or invented); *orphan* — every subtree's leaves
    co-located on a single cell that is not dead.  Called between
    ``run_until`` segments (after the maintenance tick), where the
    partition must always be whole regardless of what was injected.
    """
    orphans: list[str] = []
    atomic: list[str] = []
    res = plane.resilience
    dead = res.dead_cells if res is not None else frozenset()
    members = plane.members()
    owner_count = {leaf.sid: 0 for leaf in plane.tree.leaves()}
    for cell, sids in sorted(members.items()):
        for sid in sorted(sids):
            if sid in owner_count:
                owner_count[sid] += 1
            else:
                atomic.append(f"cell {cell} owns unknown sid {sid}")
    for sid, count in owner_count.items():
        if count == 0:
            atomic.append(f"sid {sid} owned by no cell")
        elif count > 1:
            atomic.append(f"sid {sid} owned by {count} cells")
    for node in plane.tree.subtrees():
        leaf_sids = {leaf.sid for leaf in plane.tree.leaves(node)}
        cells = sorted(
            cell
            for cell, sids in members.items()
            if leaf_sids & sids
        )
        if len(cells) > 1:
            orphans.append(
                f"subtree {node.name} split across cells {cells}"
            )
        elif cells and all(cell in dead for cell in cells):
            orphans.append(
                f"subtree {node.name} owned only by dead cell {cells}"
            )
    return orphans, atomic


def plane_attained_error_pct(
    plane, *, baseline: Optional[Mapping[int, int]] = None
) -> float:
    """Worst per-cell renormalised attained-fraction deviation (%).

    Each cell is one CPU: the plane's fairness claim is proportional
    enforcement *within* a cell's subject set, so targets renormalise
    over each cell's members and the worst deviation across cells is
    reported.  ``baseline`` (sid → rusage µs) restricts the measurement
    to consumption after a snapshot — the settle-window audit.
    """
    kapi = plane.kernel.kapi
    eff = plane.tree.effective_shares()
    worst = 0.0
    measured = False
    for cell, sids in sorted(plane.members().items()):
        rows: list[tuple[int, int]] = []
        for sid in sorted(sids):
            try:
                usage = kapi.getrusage(plane.workers[sid].pid)
            except NoSuchProcessError:
                continue
            if baseline is not None:
                usage -= baseline.get(sid, 0)
            rows.append((eff[sid], usage))
        total_us = sum(usage for _, usage in rows)
        total_shares = sum(share for share, _ in rows)
        if len(rows) < 2 or total_us <= 0 or total_shares <= 0:
            continue
        measured = True
        for share, usage in rows:
            target = share / total_shares
            deviation = abs(usage / total_us - target) / target
            worst = max(worst, deviation)
    return 100.0 * worst if measured else float("nan")


def run_plane_episode(
    seed: int,
    fault_rate: float,
    *,
    plane_kind: str = "crash",
    quantum_ms: float = 10.0,
    cycles: int = 60,
    warmup_cycles: int = 5,
    restart_budget: int = 5,
    cells: int = PLANE_CELLS,
    fairness_base_pct: float = PLANE_FAIRNESS_BASE_PCT,
    fairness_slope_pct: float = PLANE_FAIRNESS_SLOPE_PCT,
) -> ChaosEpisode:
    """Run one plane-suite episode and evaluate all nine invariants.

    The driver models an out-of-band controller: it advances the plane
    in fixed control steps, mutating a random subtree weight every
    third step (forcing real migrations for the tears to land in) until
    the settle point at 3/4 of the horizon, auditing the membership
    partition after every step.  The final quarter runs with frozen
    weights; fairness is measured over that window only, against the
    final effective shares.  A crash-mode tear surfaces as
    :class:`~repro.errors.MigrationTornError` here — exactly as it
    would to a real controller — and the next maintenance tick
    salvages it.
    """
    from repro.resilience.supervisor import RestartPolicy
    from repro.sharetree import ShardedAlpsPlane
    from repro.sharetree.resilience import PlaneResilienceConfig
    from repro.sim.rng import RngStreams

    if plane_kind not in PLANE_KINDS:
        raise ValueError(f"unknown plane episode kind {plane_kind!r}")
    total_cycles = cycles + warmup_cycles
    quantum_us = ms(quantum_ms)
    horizon_us = int(2 * total_cycles * 10 * quantum_us)
    settle_us = (3 * horizon_us) // 4
    plan = plane_episode_plan(
        plane_kind,
        fault_rate,
        horizon_us=horizon_us,
        restart_budget=restart_budget,
    )
    tree = plane_episode_tree()
    plane = ShardedAlpsPlane(
        tree,
        AlpsConfig(quantum_us=quantum_us),
        cells=cells,
        seed=seed,
        observer=Observer(),
        resilience=PlaneResilienceConfig(
            policy=RestartPolicy(restart_budget=restart_budget),
            seed=seed,
            plan=plan,
        ),
    )
    res = plane.resilience
    assert res is not None
    mutate = RngStreams(seed).stream("plane.chaos.mutate")
    subtrees = [node.name for node in tree.subtrees()]
    orphans: list[str] = []
    atomic: list[str] = []
    steps = 24
    step_us = settle_us // steps
    for i in range(1, steps + 1):
        if i % 3 == 0:
            path = subtrees[int(mutate.integers(0, len(subtrees)))]
            weight = int(mutate.integers(1, 9))
            try:
                plane.set_weight(path, weight)
            except MigrationTornError:
                # Crash mode: the journaled intent is salvaged by the
                # next tick.  Exception mode: the readmit guard already
                # rolled the torn subtree back before this propagated.
                pass
        plane.run_until(i * step_us)
        step_orphans, step_atomic = audit_plane_partition(plane)
        orphans.extend(step_orphans)
        atomic.extend(step_atomic)
    kapi = plane.kernel.kapi
    baseline = {
        sid: kapi.getrusage(proc.pid)
        for sid, proc in plane.workers.items()
    }
    plane.run_until(horizon_us)
    step_orphans, step_atomic = audit_plane_partition(plane)
    orphans.extend(step_orphans)
    atomic.extend(step_atomic)
    error_pct = plane_attained_error_pct(plane, baseline=baseline)
    for cell, agent in sorted(plane.agents.items()):
        if not res.is_dead(cell):
            agent.shutdown(kapi)
    invariants = evaluate_plane_invariants(
        plane,
        fault_rate=fault_rate,
        error_pct=error_pct,
        orphan_violations=orphans,
        atomicity_violations=atomic,
        fairness_base_pct=fairness_base_pct,
        fairness_slope_pct=fairness_slope_pct,
    )
    agents = list(plane.agents.values())
    return ChaosEpisode(
        seed=seed,
        fault_rate=fault_rate,
        cycles=max((len(a.cycle_log) for a in agents), default=0),
        error_pct=float(error_pct),
        restarts=sum(a.restarts for a in agents),
        journal_recoveries=sum(a.journal_recoveries for a in agents),
        recovery_fallbacks=sum(a.recovery_fallbacks for a in agents),
        journal_writes_lost=res.journal_writes_lost,
        journal_writes_torn=res.journal_writes_torn,
        supervisor_restarts=res.cell_restarts,
        degraded=bool(res.dead_cells),
        invariants=tuple(invariants),
        suite="plane",
        plane_kind=plane_kind,
        cells=cells,
        dead_cells=len(res.dead_cells),
        rehomes=res.rehomes,
        tears=res.tears_injected,
        salvages=res.salvages,
        leaf_migrations=plane.migrations,
    )


@dataclass(slots=True, frozen=True)
class ChaosEpisode:
    """One episode's outcome: fault census, recovery census, verdicts."""

    seed: int
    fault_rate: float
    cycles: int
    error_pct: float
    # -- recovery census --------------------------------------------
    restarts: int
    journal_recoveries: int
    recovery_fallbacks: int
    journal_writes_lost: int
    journal_writes_torn: int
    supervisor_restarts: int
    degraded: bool
    # -- verdicts ----------------------------------------------------
    invariants: tuple[InvariantResult, ...]
    # -- overload census (zeros outside the overload suite) ----------
    suite: str = "resilience"
    overload_kind: str = ""
    engagements: int = 0
    sheds: int = 0
    max_degraded_slip_quanta: float = 0.0
    admission_queued_peak: int = 0
    # -- plane census (zeros outside the plane suite) ----------------
    plane_kind: str = ""
    cells: int = 0
    dead_cells: int = 0
    rehomes: int = 0
    tears: int = 0
    salvages: int = 0
    leaf_migrations: int = 0

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return all(res.ok for res in self.invariants)


def run_chaos_episode(
    seed: int,
    fault_rate: float,
    *,
    suite: str = "resilience",
    overload_kind: str = "storm",
    plane_kind: str = "crash",
    shares: Sequence[int] = DEFAULT_SHARES,
    quantum_ms: float = 10.0,
    cycles: int = 60,
    warmup_cycles: int = 5,
    restart_budget: int = 5,
    fairness_base_pct: float = DEFAULT_FAIRNESS_BASE_PCT,
    fairness_slope_pct: float = DEFAULT_FAIRNESS_SLOPE_PCT,
) -> ChaosEpisode:
    """Run one fully-instrumented episode and evaluate its invariants."""
    if suite not in SUITES:
        raise ValueError(f"unknown chaos suite {suite!r}")
    if suite == "plane":
        # The plane suite has its own driver: a sharded plane under
        # control-plane faults, not a single controlled workload.
        return run_plane_episode(
            seed,
            fault_rate,
            plane_kind=plane_kind,
            quantum_ms=quantum_ms,
            cycles=cycles,
            warmup_cycles=warmup_cycles,
            restart_budget=restart_budget,
            fairness_base_pct=fairness_base_pct,
            fairness_slope_pct=fairness_slope_pct,
        )
    total_cycles = cycles + warmup_cycles
    quantum_us = ms(quantum_ms)
    horizon_us = int(2 * total_cycles * sum(shares) * quantum_us)
    guard: Optional[OverloadGuard] = None
    if suite == "overload":
        plan = overload_episode_plan(
            overload_kind, fault_rate, seed=seed, horizon_us=horizon_us
        )
        guard = OverloadGuard(overload_guard_config(overload_kind))
    else:
        overload_kind = ""
        plan = episode_plan(fault_rate, seed=seed, horizon_us=horizon_us)
    observer = Observer()
    journal = MemoryJournal()
    supervisor = Supervisor(
        RestartPolicy(restart_budget=restart_budget),
        quantum_us=quantum_us,
        label=f"chaos-{seed}",
        seed=seed,
    )
    cw = build_controlled_workload(
        list(shares),
        AlpsConfig(quantum_us=quantum_us),
        seed=seed,
        fault_plan=plan,
        observer=observer,
        journal=journal,
        supervisor=supervisor,
        overload=guard,
    )
    # Heavy plans (or a stood-down agent) may never reach the cycle
    # goal; the horizon bounds the episode and a short log is still an
    # auditable result.
    run_for_cycles(
        cw, total_cycles, max_sim_us=horizon_us, on_incomplete="ignore"
    )
    cw.agent.shutdown(cw.kernel.kapi)
    error_pct = attained_error_pct(cw)
    invariants = evaluate_episode_invariants(
        cw,
        fault_rate=fault_rate,
        error_pct=error_pct,
        fairness_base_pct=fairness_base_pct,
        fairness_slope_pct=fairness_slope_pct,
    )
    injector = cw.injector
    return ChaosEpisode(
        seed=seed,
        fault_rate=fault_rate,
        cycles=len(cw.agent.cycle_log),
        error_pct=float(error_pct),
        restarts=cw.agent.restarts,
        journal_recoveries=cw.agent.journal_recoveries,
        recovery_fallbacks=cw.agent.recovery_fallbacks,
        journal_writes_lost=injector.journal_writes_lost if injector else 0,
        journal_writes_torn=injector.journal_writes_torn if injector else 0,
        supervisor_restarts=supervisor.restarts,
        degraded=supervisor.degraded,
        invariants=tuple(invariants),
        suite=suite,
        overload_kind=overload_kind,
        engagements=guard.ladder.engagements if guard else 0,
        sheds=guard.sheds if guard else 0,
        max_degraded_slip_quanta=(
            guard.max_degraded_slip_quanta if guard else 0.0
        ),
        admission_queued_peak=guard.admission.queued_peak if guard else 0,
    )


@dataclass(slots=True)
class ChaosReport:
    """A finished campaign: every episode plus aggregate verdicts."""

    campaign_seed: int
    episodes: list[ChaosEpisode]

    @property
    def ok(self) -> bool:
        """True when every invariant of every episode held."""
        return all(ep.ok for ep in self.episodes)

    def violations(self) -> list[tuple[int, str, str]]:
        """``(episode_index, invariant, detail)`` for every failure."""
        out: list[tuple[int, str, str]] = []
        for i, ep in enumerate(self.episodes):
            for res in ep.invariants:
                if not res.ok:
                    out.append((i, res.name, res.detail))
        return out

    def raise_on_violation(self) -> None:
        """Raise :class:`~repro.errors.InvariantViolation` unless clean."""
        violations = self.violations()
        if violations:
            raise InvariantViolation(violations)

    def format_table(self) -> str:
        """Stable text rendering (equal seeds render identical bytes)."""
        overload = any(ep.suite == "overload" for ep in self.episodes)
        plane = any(ep.suite == "plane" for ep in self.episodes)
        kind_hdr = f" {'kind':>9} {'shed':>4}" if overload else ""
        if plane:
            kind_hdr += (
                f" {'kind':>7} {'dead':>4} {'rehome':>6} "
                f"{'tears':>5} {'moves':>5}"
            )
        lines = [
            f"chaos campaign seed={self.campaign_seed} "
            f"episodes={len(self.episodes)} "
            f"verdict={'PASS' if self.ok else 'FAIL'}",
            f"{'ep':>3} {'seed':>6} {'rate':>5}{kind_hdr} {'cycles':>6} "
            f"{'err%':>7} {'restarts':>8} {'journaled':>9} "
            f"{'fallback':>8} {'verdict':>7}",
        ]
        for i, ep in enumerate(self.episodes):
            kind_col = (
                f" {ep.overload_kind:>9} {ep.sheds:>4}" if overload else ""
            )
            if plane:
                kind_col += (
                    f" {ep.plane_kind:>7} {ep.dead_cells:>4} "
                    f"{ep.rehomes:>6} {ep.tears:>5} {ep.leaf_migrations:>5}"
                )
            lines.append(
                f"{i:>3} {ep.seed:>6} {ep.fault_rate:>5.2f}{kind_col} "
                f"{ep.cycles:>6} "
                f"{ep.error_pct:>7.2f} {ep.restarts:>8} "
                f"{ep.journal_recoveries:>9} {ep.recovery_fallbacks:>8} "
                f"{'ok' if ep.ok else 'FAIL':>7}"
            )
            for res in ep.invariants:
                if not res.ok:
                    lines.append(f"      ! {res.name}: {res.detail}")
        return "\n".join(lines)


def run_chaos_campaign(
    seed: int = 0,
    *,
    suite: str = "resilience",
    episodes: int = DEFAULT_EPISODES,
    rates: Sequence[float] = DEFAULT_RATES,
    shares: Optional[Sequence[int]] = None,
    quantum_ms: float = 10.0,
    cycles: int = 60,
    warmup_cycles: int = 5,
    restart_budget: int = 5,
    fairness_base_pct: Optional[float] = None,
    fairness_slope_pct: Optional[float] = None,
    workers: Optional[int] = None,
    cache: Optional[SweepCache] = None,
) -> ChaosReport:
    """Run one seeded campaign: ``episodes`` cells cycling over ``rates``.

    Episode *i* uses fault rate ``rates[i % len(rates)]`` and seed
    ``seed * 1000 + i``, so campaigns with different seeds never share
    an episode and ``repro chaos run --seed N`` is fully deterministic.
    The ``overload`` suite additionally cycles episode flavours through
    :data:`OVERLOAD_KINDS` and defaults to :data:`OVERLOAD_SHARES`.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown chaos suite {suite!r}")
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    if not rates:
        raise ValueError("at least one fault rate is required")
    if shares is None:
        shares = OVERLOAD_SHARES if suite == "overload" else DEFAULT_SHARES
    if fairness_base_pct is None:
        fairness_base_pct = {
            "overload": OVERLOAD_FAIRNESS_BASE_PCT,
            "plane": PLANE_FAIRNESS_BASE_PCT,
        }.get(suite, DEFAULT_FAIRNESS_BASE_PCT)
    if fairness_slope_pct is None:
        fairness_slope_pct = {
            "overload": OVERLOAD_FAIRNESS_SLOPE_PCT,
            "plane": PLANE_FAIRNESS_SLOPE_PCT,
        }.get(suite, DEFAULT_FAIRNESS_SLOPE_PCT)
    cells = [
        SweepCell(
            CHAOS_EXPERIMENT,
            {
                "seed": seed * 1000 + i,
                "fault_rate": rates[i % len(rates)],
                "suite": suite,
                "overload_kind": OVERLOAD_KINDS[i % len(OVERLOAD_KINDS)],
                "plane_kind": PLANE_KINDS[i % len(PLANE_KINDS)],
                "shares": shares,
                "quantum_ms": quantum_ms,
                "cycles": cycles,
                "warmup_cycles": warmup_cycles,
                "restart_budget": restart_budget,
                "fairness_base_pct": fairness_base_pct,
                "fairness_slope_pct": fairness_slope_pct,
            },
        )
        for i in range(episodes)
    ]
    spec = SweepSpec(worker=run_chaos_episode, cells=cells)
    outcome = run_sweep(spec, workers=workers, cache=cache)
    return ChaosReport(campaign_seed=seed, episodes=outcome.values)


__all__ = [
    "CHAOS_EXPERIMENT",
    "ChaosEpisode",
    "ChaosReport",
    "DEFAULT_EPISODES",
    "DEFAULT_RATES",
    "DEFAULT_SHARES",
    "OVERLOAD_KINDS",
    "OVERLOAD_SHARES",
    "PLANE_CELLS",
    "PLANE_KINDS",
    "SUITES",
    "attained_error_pct",
    "audit_plane_partition",
    "episode_plan",
    "overload_episode_plan",
    "overload_guard_config",
    "plane_attained_error_pct",
    "plane_episode_plan",
    "plane_episode_tree",
    "run_chaos_campaign",
    "run_chaos_episode",
    "run_plane_episode",
]
