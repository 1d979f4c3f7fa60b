"""Machine-checked invariants over one chaos episode.

A chaos campaign is only as good as what it *checks*.  Each episode
(one seeded fault plan over one controlled workload) finishes with the
safety/liveness properties below evaluated against the workload's
final kernel state, its obs event log, and the fault injector's trace.
All must hold at every fault rate the robustness benchmark sweeps;
a failure is a real resilience bug, not noise — each invariant is
conditioned on what the plan actually injected.

The invariants:

``no_lost_process``
    Every controlled process that is dead at the end of the episode
    died to an *injected* crash (a ``crash pid=N`` record in the fault
    trace).  Anything else lost a process to the scheduler itself.
``no_wedged_process``
    After shutdown, no live controlled process remains job-control
    stopped.  The PR 1 guarantee, now audited under supervision and
    journaled restarts too.
``cpu_conservation``
    The agent's accounting never exceeds physics: per live pid, the
    agent's cumulative measured consumption is bounded by the kernel's
    own rusage counter, and the kernel's total consumption is bounded
    by elapsed virtual time × CPUs.
``bounded_fairness``
    The worst subject's relative deviation of *cumulative* attained-CPU
    fraction from its share-proportional target stays under an affine
    bound in the fault rate: ``error ≤ base + slope · rate`` (percent).
    The journaled-recovery claim, as an inequality: individual
    post-crash cycles deliberately deviate while debt is repaid, but
    the cumulative split must converge back to the shares.
``agent_liveness``
    Unless the supervisor legitimately stood the agent down (restart
    budget exhausted), the agent serviced a quantum timer within the
    liveness window of the episode's end — crashes plus backoff never
    silence it permanently.

Two more apply to episodes run with an overload guard attached
(docs/overload.md); both report trivially-true when no guard was
armed:

``bounded_timer_slip``
    Once the degradation ladder is engaged, per-wake timer slip stays
    under the guard's configured bound — degradation actually buys the
    stability it trades accuracy for.  Conditioned on the plan: while
    an injected nice-bomb deprioritises the *agent itself*, no amount
    of stretching or shedding can bound its slip, so bombed episodes
    skip this check.
``degrade_recover_roundtrip``
    If the ladder engaged during the episode, then by the end — after
    the plan's storms were reaped and bombs expired — it walked back to
    NORMAL with every shed member readmitted or accounted dead, and the
    measurement cadence restored (postpone boost 1): degradation is a
    round trip, not a ratchet.

The ``plane`` chaos suite (docs/share_tree.md, "Plane fault
tolerance") evaluates plane-aware analogues of the five core checks
against a :class:`~repro.sharetree.plane.ShardedAlpsPlane` plus two
invariants of its own, for nine total
(:func:`evaluate_plane_invariants`):

``no_orphaned_subtree``
    At every audited control step, every leaf is owned by exactly one
    *live* cell and every subtree's leaves are co-located — cell death
    and re-homing never strand a tenant without an enforcing agent.
``migration_atomicity``
    The membership partition is conserved across arbitrary crash
    points: no sid is ever lost, duplicated, or invented, even when a
    :class:`~repro.faults.plan.MigrationTear` kills the controller
    mid-batch and salvage replays the journaled intent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import NoSuchProcessError
from repro.units import SEC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sharetree.plane import ShardedAlpsPlane
    from repro.workloads.scenarios import ControlledWorkload

#: Fairness bound intercept (percent error at fault rate 0).  Clean
#: runs land under 1%; the intercept leaves slack for startup skew.
DEFAULT_FAIRNESS_BASE_PCT = 8.0
#: Fairness bound slope (percent error per unit fault rate).  Dominated
#: by the heaviest sweep point (rate 0.2: one in five control signals
#: is dropped outright, so proportions genuinely loosen — the measured
#: worst case is ~45% with salvage recovery and amortized debt
#: repayment keeping it bounded; the slope leaves seed headroom).
DEFAULT_FAIRNESS_SLOPE_PCT = 320.0
#: How recently (µs before episode end) the agent must have ticked.
DEFAULT_LIVENESS_WINDOW_US = 2 * SEC


@dataclass(slots=True, frozen=True)
class InvariantResult:
    """One invariant's verdict for one episode."""

    name: str
    ok: bool
    detail: str


def _crashed_pids(cw: "ControlledWorkload") -> set[int]:
    """pids the injector deliberately killed (from its fault trace)."""
    pids: set[int] = set()
    if cw.injector is None:
        return pids
    for rec in cw.injector.trace:
        if rec.kind == "crash" and rec.detail.startswith("pid="):
            try:
                pids.add(int(rec.detail[4:]))
            except ValueError:  # pragma: no cover - trace is ours
                continue
    return pids


def check_no_lost_process(cw: "ControlledWorkload") -> InvariantResult:
    """Every dead controlled process died to an injected crash."""
    crashed = _crashed_pids(cw)
    kapi = cw.kernel.kapi
    lost = []
    for proc in cw.workers:
        if not kapi.pid_exists(proc.pid) and proc.pid not in crashed:
            lost.append(proc.pid)
    return InvariantResult(
        "no_lost_process",
        not lost,
        "all deaths injected" if not lost else f"unexplained deaths: {lost}",
    )


def check_no_wedged_process(cw: "ControlledWorkload") -> InvariantResult:
    """No live controlled process remains stopped after shutdown."""
    wedged = []
    for proc in cw.workers:
        try:
            if cw.kernel.is_stopped(proc.pid):
                wedged.append(proc.pid)
        except Exception:
            continue  # dead — cannot be wedged
    return InvariantResult(
        "no_wedged_process",
        not wedged,
        "no wedged pids" if not wedged else f"wedged pids: {wedged}",
    )


def check_cpu_conservation(cw: "ControlledWorkload") -> InvariantResult:
    """Agent accounting ≤ kernel accounting ≤ time × CPUs."""
    kapi = cw.kernel.kapi
    total_kernel_us = 0
    for sid, subj in cw.agent.subjects.items():
        pid = getattr(subj, "pid", None)
        if pid is None:
            continue
        try:
            kernel_us = kapi.getrusage(pid)
        except NoSuchProcessError:
            continue
        total_kernel_us += kernel_us
        agent_us = cw.agent.cumulative_cpu_of(sid)
        if agent_us > kernel_us:
            return InvariantResult(
                "cpu_conservation",
                False,
                f"agent measured {agent_us}us for sid {sid} "
                f"but kernel accounted only {kernel_us}us",
            )
    ncpus = cw.kernel.cfg.ncpus
    budget = cw.engine.now * ncpus
    if total_kernel_us > budget:
        return InvariantResult(
            "cpu_conservation",
            False,
            f"kernel accounted {total_kernel_us}us over a "
            f"{budget}us budget ({ncpus} cpu(s))",
        )
    return InvariantResult(
        "cpu_conservation",
        True,
        f"{total_kernel_us}us within {budget}us budget",
    )


def check_bounded_fairness(
    fault_rate: float,
    error_pct: float,
    *,
    base_pct: float = DEFAULT_FAIRNESS_BASE_PCT,
    slope_pct: float = DEFAULT_FAIRNESS_SLOPE_PCT,
) -> InvariantResult:
    """Cumulative attained-fraction error under ``base + slope · rate``.

    ``error_pct`` is :func:`repro.resilience.chaos.attained_error_pct`:
    the worst subject's relative deviation of cumulative attained CPU
    from its share-proportional target, in percent.
    """
    bound = base_pct + slope_pct * fault_rate
    ok = error_pct == error_pct and error_pct <= bound  # NaN fails
    return InvariantResult(
        "bounded_fairness",
        ok,
        f"error {error_pct:.2f}% vs bound {bound:.2f}% at rate {fault_rate}",
    )


def check_agent_liveness(
    cw: "ControlledWorkload",
    *,
    window_us: int = DEFAULT_LIVENESS_WINDOW_US,
) -> InvariantResult:
    """The agent kept servicing quanta (unless legitimately degraded)."""
    if cw.supervisor is not None and cw.supervisor.degraded:
        return InvariantResult(
            "agent_liveness", True, "supervisor stood the agent down"
        )
    obs = cw.observer
    if obs is None:
        return InvariantResult(
            "agent_liveness", False, "no observer attached: cannot audit"
        )
    tick = obs.events.last("quantum.tick")
    if tick is None:
        return InvariantResult("agent_liveness", False, "agent never ticked")
    gap = cw.engine.now - tick.time_us
    return InvariantResult(
        "agent_liveness",
        gap <= window_us,
        f"last tick {gap}us before episode end (window {window_us}us)",
    )


def check_bounded_timer_slip(cw: "ControlledWorkload") -> InvariantResult:
    """Degraded-mode slip stayed within the guard's configured bound."""
    guard = cw.overload
    if guard is None:
        return InvariantResult(
            "bounded_timer_slip", True, "n/a: no overload guard"
        )
    plan = cw.injector.plan if cw.injector is not None else None
    if plan is not None and plan.agent_nice_bombs:
        return InvariantResult(
            "bounded_timer_slip",
            True,
            "n/a: agent nice-bomb injected (agent-external suppression)",
        )
    if guard.degraded_wakes == 0:
        return InvariantResult(
            "bounded_timer_slip", True, "ladder never engaged"
        )
    bound = guard.config.max_degraded_slip_quanta
    return InvariantResult(
        "bounded_timer_slip",
        guard.slip_bound_ok,
        f"max degraded slip {guard.max_degraded_slip_quanta:.1f}q "
        f"vs bound {bound:.1f}q over {guard.degraded_wakes} degraded wakes",
    )


def check_degrade_recover_roundtrip(
    cw: "ControlledWorkload",
) -> InvariantResult:
    """An engaged ladder walked all the way back once the load cleared."""
    guard = cw.overload
    if guard is None:
        return InvariantResult(
            "degrade_recover_roundtrip", True, "n/a: no overload guard"
        )
    if guard.ladder.engagements == 0:
        return InvariantResult(
            "degrade_recover_roundtrip", True, "ladder never engaged"
        )
    if not guard.fully_recovered:
        return InvariantResult(
            "degrade_recover_roundtrip",
            False,
            f"still degraded at episode end: rung={int(guard.rung)} "
            f"shed_outstanding={guard.shed_outstanding} "
            f"after {guard.ladder.engagements} engagement(s)",
        )
    boost = cw.agent.core.postpone_boost
    if boost != 1:
        return InvariantResult(
            "degrade_recover_roundtrip",
            False,
            f"recovered rung but postpone boost still {boost}",
        )
    return InvariantResult(
        "degrade_recover_roundtrip",
        True,
        f"{guard.ladder.engagements} engagement(s), "
        f"{guard.sheds} shed(s), full enforcement restored",
    )


# ---------------------------------------------------------------------------
# Plane-suite invariants (repro.sharetree.resilience, docs/share_tree.md)
# ---------------------------------------------------------------------------
def check_plane_no_lost_process(plane: "ShardedAlpsPlane") -> InvariantResult:
    """Every leaf worker survived: plane plans never kill workers, so a
    dead worker means the control plane itself lost a process."""
    kapi = plane.kernel.kapi
    lost = [
        proc.pid
        for proc in plane.workers.values()
        if not kapi.pid_exists(proc.pid)
    ]
    return InvariantResult(
        "no_lost_process",
        not lost,
        "all workers alive" if not lost else f"lost worker pids: {lost}",
    )


def check_plane_no_wedged_process(
    plane: "ShardedAlpsPlane",
) -> InvariantResult:
    """After every live cell shut down, no worker remains stopped —
    not even one whose owning cell died mid-episode (escalation resumes
    all before standing down; re-homing hands the rest to survivors)."""
    wedged = []
    for proc in plane.workers.values():
        try:
            if plane.kernel.is_stopped(proc.pid):
                wedged.append(proc.pid)
        except Exception:
            continue  # dead — cannot be wedged
    return InvariantResult(
        "no_wedged_process",
        not wedged,
        "no wedged pids" if not wedged else f"wedged pids: {wedged}",
    )


def check_plane_cpu_conservation(
    plane: "ShardedAlpsPlane",
) -> InvariantResult:
    """Per owning cell, agent accounting ≤ kernel accounting; the
    kernel's total ≤ elapsed time × CPUs.  A migrated subject's new
    cell counts only post-adoption consumption, so the per-sid bound
    still holds under arbitrary re-homing."""
    kapi = plane.kernel.kapi
    for cell, agent in sorted(plane.agents.items()):
        for sid in agent.subjects:
            try:
                kernel_us = kapi.getrusage(plane.workers[sid].pid)
            except NoSuchProcessError:
                continue
            agent_us = agent.cumulative_cpu_of(sid)
            if agent_us > kernel_us:
                return InvariantResult(
                    "cpu_conservation",
                    False,
                    f"cell {cell} measured {agent_us}us for sid {sid} "
                    f"but kernel accounted only {kernel_us}us",
                )
    total_kernel_us = 0
    for proc in list(plane.workers.values()) + list(
        plane.agent_procs.values()
    ):
        try:
            total_kernel_us += kapi.getrusage(proc.pid)
        except NoSuchProcessError:
            continue
    budget = plane.engine.now * plane.cells
    if total_kernel_us > budget:
        return InvariantResult(
            "cpu_conservation",
            False,
            f"kernel accounted {total_kernel_us}us over a "
            f"{budget}us budget ({plane.cells} cpu(s))",
        )
    return InvariantResult(
        "cpu_conservation",
        True,
        f"{total_kernel_us}us within {budget}us budget",
    )


def check_plane_agent_liveness(
    plane: "ShardedAlpsPlane",
    *,
    window_us: int = DEFAULT_LIVENESS_WINDOW_US,
) -> InvariantResult:
    """Every cell that still owns subjects kept beating its supervisor
    within the window — dead (stood-down) cells are excused, because
    re-homing, not restarting, is their contract."""
    res = plane.resilience
    if res is None:
        return InvariantResult(
            "agent_liveness", False, "no resilience stack: cannot audit"
        )
    end = plane.engine.now
    stale = []
    for cell, agent in sorted(plane.agents.items()):
        if not agent.subjects or res.is_dead(cell):
            continue
        last = res.cell_health(cell).supervisor._last_beat
        if last is None or end - last > window_us:
            gap = "never" if last is None else f"{end - last}us"
            stale.append(f"cell {cell}: {gap}")
    return InvariantResult(
        "agent_liveness",
        not stale,
        "all live cells beat within window"
        if not stale
        else f"stale cells: {stale} (window {window_us}us)",
    )


def check_no_orphaned_subtree(
    violations: Sequence[str],
) -> InvariantResult:
    """Every leaf is owned by a live cell, and every subtree's leaves
    are co-located on one cell, at every audited control step."""
    return InvariantResult(
        "no_orphaned_subtree",
        not violations,
        "no orphaned leaves or split subtrees"
        if not violations
        else f"{len(violations)} violation(s); first: {violations[0]}",
    )


def check_migration_atomicity(
    violations: Sequence[str],
) -> InvariantResult:
    """The membership partition is conserved across arbitrary crash
    points: no sid lost, duplicated, or invented, at every audited
    control step."""
    return InvariantResult(
        "migration_atomicity",
        not violations,
        "membership partition conserved"
        if not violations
        else f"{len(violations)} violation(s); first: {violations[0]}",
    )


def evaluate_plane_invariants(
    plane: "ShardedAlpsPlane",
    *,
    fault_rate: float,
    error_pct: float,
    orphan_violations: Sequence[str],
    atomicity_violations: Sequence[str],
    fairness_base_pct: float,
    fairness_slope_pct: float,
    liveness_window_us: int = DEFAULT_LIVENESS_WINDOW_US,
) -> list[InvariantResult]:
    """All nine plane-suite invariants, in canonical order: the seven
    episode invariants (the two overload checks answer trivially — the
    plane suite arms no guard) plus ``no_orphaned_subtree`` and
    ``migration_atomicity``."""
    return [
        check_plane_no_lost_process(plane),
        check_plane_no_wedged_process(plane),
        check_plane_cpu_conservation(plane),
        check_bounded_fairness(
            fault_rate,
            error_pct,
            base_pct=fairness_base_pct,
            slope_pct=fairness_slope_pct,
        ),
        check_plane_agent_liveness(plane, window_us=liveness_window_us),
        InvariantResult(
            "bounded_timer_slip", True, "n/a: no overload guard"
        ),
        InvariantResult(
            "degrade_recover_roundtrip", True, "n/a: no overload guard"
        ),
        check_no_orphaned_subtree(orphan_violations),
        check_migration_atomicity(atomicity_violations),
    ]


def evaluate_episode_invariants(
    cw: "ControlledWorkload",
    *,
    fault_rate: float,
    error_pct: float,
    fairness_base_pct: float = DEFAULT_FAIRNESS_BASE_PCT,
    fairness_slope_pct: float = DEFAULT_FAIRNESS_SLOPE_PCT,
    liveness_window_us: int = DEFAULT_LIVENESS_WINDOW_US,
) -> list[InvariantResult]:
    """All seven invariants for one finished episode, in canonical order
    (the two overload checks answer trivially without a guard)."""
    return [
        check_no_lost_process(cw),
        check_no_wedged_process(cw),
        check_cpu_conservation(cw),
        check_bounded_fairness(
            fault_rate,
            error_pct,
            base_pct=fairness_base_pct,
            slope_pct=fairness_slope_pct,
        ),
        check_agent_liveness(cw, window_us=liveness_window_us),
        check_bounded_timer_slip(cw),
        check_degrade_recover_roundtrip(cw),
    ]


__all__ = [
    "DEFAULT_FAIRNESS_BASE_PCT",
    "DEFAULT_FAIRNESS_SLOPE_PCT",
    "DEFAULT_LIVENESS_WINDOW_US",
    "InvariantResult",
    "check_agent_liveness",
    "check_bounded_fairness",
    "check_bounded_timer_slip",
    "check_cpu_conservation",
    "check_degrade_recover_roundtrip",
    "check_migration_atomicity",
    "check_no_lost_process",
    "check_no_orphaned_subtree",
    "check_no_wedged_process",
    "check_plane_agent_liveness",
    "check_plane_cpu_conservation",
    "check_plane_no_lost_process",
    "check_plane_no_wedged_process",
    "evaluate_episode_invariants",
    "evaluate_plane_invariants",
]
