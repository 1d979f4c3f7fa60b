"""Fault tolerance for the sharded control plane (docs/share_tree.md).

PRs 1/5/6 made a *single* ALPS agent self-healing, journaled, and
overload-safe.  This module extends those guarantees to the PR 8
:class:`~repro.sharetree.plane.ShardedAlpsPlane`, whose failure modes
are strictly worse: a cell agent crash orphans whole subtrees, and a
``rebalance()`` torn between ``release_subject`` and ``adopt_subject``
can leak subjects out of every cell or leave pids wedged in SIGSTOP.

Three mechanisms, all schedule-invisible when no fault fires:

**Per-cell supervision.**  Each cell's agent runs behind the agent's
one supervised host,
:class:`~repro.resilience.supervisor.SupervisedAlpsBehavior`, with the
cell's :class:`Supervisor`, the plane's :meth:`PlaneResilience.crash_due`
as its crash source and the plane's restarted/dead notifications.  An
injected :class:`~repro.faults.plan.CellCrash` within the restart
budget is a journaled restart with bounded, jittered backoff; past the
budget the host *resumes every process the cell controlled first*
(:meth:`~repro.alps.agent.AlpsAgent.shutdown`), stands the cell down,
and marks it dead so the next plane tick re-homes its subtrees onto
surviving cells via the existing LPT partition.

**Crash-safe two-phase migration.**  Before any ``release_subject``
runs, the plane journals an epoch-fenced ``migration.intent`` record
(the write-ahead rule); a ``migration.commit`` record closes the batch.
:meth:`PlaneResilience.salvage` replays a torn batch — newest journal
record is an uncommitted intent — completing each subtree's move
forward when its destination already adopted a leaf, rolling it back
otherwise, rebuilding released-but-unadopted subjects from the share
tree and kernel truth, and resuming any pid left stopped.  Epochs fence
split-brain: every adoption stamps ``sid → epoch``, and a stale intent
(or a stale cell) can never double-adopt a subject that a newer epoch
already moved.

**Guarded adoption.**  Migration adopts run with bounded retries on
transient kernel-read failures, and the release→adopt loop readmits
released subjects to their source cell in a ``finally`` — an ordinary
exception mid-``rebalance`` can no longer strand a subject outside
every cell.

The whole stack is audited by the ``plane`` chaos suite
(``repro chaos run --suite plane``), which machine-checks the two new
invariants — ``no_orphaned_subtree`` and ``migration_atomicity`` — on
top of the existing seven (:mod:`repro.resilience.invariants`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.alps.subjects import ProcessSubject
from repro.errors import MigrationTornError, NoSuchProcessError
from repro.faults.plan import CellCrash, FaultPlan, MigrationTear
from repro.kernel.signals import SIGCONT
from repro.resilience.journal import MemoryJournal, WriteFaults
from repro.resilience.supervisor import (
    RestartPolicy,
    SupervisedAlpsBehavior,
    Supervisor,
)
from repro.sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alps.agent import AlpsAgent
    from repro.kernel.process import Process
    from repro.sharetree.plane import ShardedAlpsPlane

#: Journal record kinds (plane-level migration log).
INTENT_KIND = "migration.intent"
COMMIT_KIND = "migration.commit"


@dataclass(slots=True, frozen=True)
class PlaneResilienceConfig:
    """Tunables for one plane's fault-tolerance stack.

    The default config arms supervision and journaling with a null
    fault plan: nothing ever fires, and the differential battery pins
    that this is byte-identical to a bare plane.
    """

    #: Per-cell supervisor policy (restart budget, backoff, jitter).
    policy: RestartPolicy = field(default_factory=RestartPolicy)
    #: Seed for supervisor jitter and journal fault draws.
    seed: int = 0
    #: Injected control-plane faults (cell crashes, migration tears,
    #: journal write faults applied to the per-cell state journals).
    plan: FaultPlan = field(default_factory=FaultPlan)
    #: Bounded retries for one migration adopt hitting transient
    #: kernel-read failures before it falls back to readmit-to-source.
    adopt_retries: int = 3


@dataclass(slots=True)
class CellHealth:
    """One cell's supervision record (rendered by ``repro top --tree``)."""

    cell: int
    supervisor: Supervisor
    journal: MemoryJournal
    dead: bool = False
    died_at_us: Optional[int] = None
    rehomed_at_us: Optional[int] = None
    resumed_on_death: int = 0

    @property
    def state(self) -> str:
        """Render label: the supervisor state, or ``dead`` once marked."""
        return "dead" if self.dead else self.supervisor.state.value


class PlaneResilience:
    """The plane's fault-tolerance stack (see module docstring).

    Owned by a :class:`~repro.sharetree.plane.ShardedAlpsPlane` built
    with ``resilience=PlaneResilienceConfig(...)``.  Holds per-cell
    supervisors and state journals, the plane-level migration journal,
    the epoch fence, and the injected fault schedules.
    """

    def __init__(
        self, plane: "ShardedAlpsPlane", config: PlaneResilienceConfig
    ) -> None:
        self.plane = plane
        self.config = config
        self.plan = config.plan
        #: Plane-level migration journal (write-ahead intent/commit).
        self.journal = MemoryJournal()
        #: Monotonic migration epoch; bumped per journaled batch.
        self.epoch = 0
        #: sid -> epoch of its most recent adoption (the fence).
        self.sid_epoch: dict[int, int] = {}
        #: Cell index -> health record (created lazily per spawned cell).
        self.health: dict[int, CellHealth] = {}
        # Injected schedules, materialised up front (determinism: the
        # plan is data; consumption order is the simulation's).
        self._cell_crashes: dict[int, list[CellCrash]] = {}
        for crash in sorted(self.plan.cell_crashes, key=lambda c: c.time_us):
            self._cell_crashes.setdefault(crash.cell, []).append(crash)
        self._tears: list[MigrationTear] = sorted(
            self.plan.migration_tears, key=lambda t: t.time_us
        )
        self._armed_tear: Optional[MigrationTear] = None
        self._ops_until_tear = 0
        #: True between a crash-mode tear and its salvage: the readmit
        #: guard must not run (the controller "died" mid-batch).
        self.crashed = False
        # -- census ----------------------------------------------------
        self.cell_crashes_injected = 0
        self.tears_injected = 0
        self.rehomes = 0
        self.rehomed_leaves = 0
        self.salvages = 0
        self.salvaged_leaves = 0
        self.adopt_retries = 0
        self.readmits = 0
        self.fenced_adopts = 0
        self.journal_writes_lost = 0
        self.journal_writes_torn = 0
        self.last_rehome_us: Optional[int] = None
        self._rng = RngStreams(self.config.seed)

    # ------------------------------------------------------------------
    # Cell lifecycle
    # ------------------------------------------------------------------
    def _journal_fault_hook(self, cell: int) -> Optional["WriteFaults"]:
        """Per-cell journal write-fault hook drawn from the plan.

        The injector's rule (:meth:`FaultInjector.journal_fault_hook`)
        with a plane-owned RNG stream per cell, so enabling journal
        faults on one cell cannot shift another cell's draws.
        """
        return WriteFaults.for_plan(
            self.plan, self._rng, f"plane.journal:{cell}", self._note_journal_fault
        )

    def _note_journal_fault(self, kept: Optional[int], size: int) -> None:
        if kept is None:
            self.journal_writes_lost += 1
        else:
            self.journal_writes_torn += 1

    def cell_health(self, cell: int) -> CellHealth:
        """The cell's health record, created on first use."""
        health = self.health.get(cell)
        if health is None:
            supervisor = Supervisor(
                self.config.policy,
                quantum_us=self.plane.config.quantum_us,
                observer=self.plane.observer,
                label=f"plane-c{cell}",
                seed=self.config.seed,
            )
            journal = MemoryJournal(fault_hook=self._journal_fault_hook(cell))
            health = CellHealth(cell, supervisor, journal)
            self.health[cell] = health
        return health

    def spawn_cell(
        self, cell: int, subjects
    ) -> tuple["Process", "AlpsAgent"]:
        """Spawn one supervised, journaled cell agent.

        The plane calls this instead of
        :func:`~repro.alps.agent.spawn_alps` when resilience is on; the
        construction mirrors it exactly (same name, uid, attachment
        order) so the agent's own schedule is unchanged.
        """
        from repro.alps.agent import AlpsAgent

        plane = self.plane
        health = self.cell_health(cell)
        agent = AlpsAgent(list(subjects), plane.config)
        agent.attach_journal(health.journal)
        agent.attach_sharetree(plane.tree)
        behavior = SupervisedAlpsBehavior(
            agent,
            health.supervisor,
            crash_due=partial(self.crash_due, cell),
            on_restarted=partial(self.note_cell_restarted, cell),
            on_dead=partial(self.note_cell_dead, cell),
        )
        proc = plane.kernel.spawn(f"alps-c{cell}", behavior)
        for subject in subjects:
            self.note_owner(subject.sid, cell)
        return proc, agent

    # ------------------------------------------------------------------
    # Injected fault schedules
    # ------------------------------------------------------------------
    def crash_due(self, cell: int, now: int) -> Optional[CellCrash]:
        """Pop the cell's next due crash, if any."""
        queue = self._cell_crashes.get(cell)
        if not queue or queue[0].time_us > now:
            return None
        crash = queue.pop(0)
        self.cell_crashes_injected += 1
        self.plane._emit(
            "plane.cell_crash",
            cell=cell,
            downtime_us=crash.downtime_us,
        )
        return crash

    def arm_tears(self, now: int) -> None:
        """Arm the next due migration tear before a rebalance batch."""
        if self._armed_tear is None and self._tears:
            if self._tears[0].time_us <= now:
                self._armed_tear = self._tears.pop(0)
                self._ops_until_tear = self._armed_tear.after_ops

    def migration_op(self) -> None:
        """One release/adopt operation: fire the armed tear when due."""
        tear = self._armed_tear
        if tear is None:
            return
        if self._ops_until_tear > 0:
            self._ops_until_tear -= 1
            return
        self._armed_tear = None
        self.tears_injected += 1
        if tear.crash:
            self.crashed = True
        self.plane._emit(
            "plane.migration_tear", crash=tear.crash, after_ops=tear.after_ops
        )
        raise MigrationTornError(crash=tear.crash, after_ops=tear.after_ops)

    # ------------------------------------------------------------------
    # Escalation bookkeeping
    # ------------------------------------------------------------------
    def note_cell_dead(self, cell: int, now: int, *, resumed: int) -> None:
        """A cell exhausted its restart budget and stood down."""
        health = self.cell_health(cell)
        health.dead = True
        health.died_at_us = now
        health.resumed_on_death = resumed
        self.plane._emit("plane.cell_dead", cell=cell, resumed=resumed)

    def note_cell_restarted(self, cell: int, now: int) -> None:
        """A cell crash was healed by a journaled restart."""
        self.plane._emit(
            "plane.cell_restart",
            cell=cell,
            attempt=self.cell_health(cell).supervisor.restarts,
        )

    @property
    def dead_cells(self) -> frozenset[int]:
        """Cells that stood down (excluded from partitions and adopts)."""
        return frozenset(
            cell for cell, health in self.health.items() if health.dead
        )

    def is_dead(self, cell: int) -> bool:
        health = self.health.get(cell)
        return health is not None and health.dead

    # ------------------------------------------------------------------
    # Epoch fence
    # ------------------------------------------------------------------
    def note_owner(self, sid: int, cell: int, epoch: Optional[int] = None) -> None:
        """Stamp an adoption with its epoch (the split-brain fence)."""
        self.sid_epoch[sid] = self.epoch if epoch is None else epoch

    def fence_ok(self, sid: int, epoch: int) -> bool:
        """True when an adoption at ``epoch`` is not stale for ``sid``."""
        return self.sid_epoch.get(sid, -1) <= epoch

    # ------------------------------------------------------------------
    # Two-phase migration journal
    # ------------------------------------------------------------------
    def begin_migration(self, moves) -> int:
        """Write the intent record; returns the batch's epoch.

        ``moves`` is ``[(name, src_cell, dst_cell, [(sid, path), ...])]``.
        Write-ahead: the record reaches the journal before any release
        runs, so a controller death at *any* later point leaves a
        salvageable intent.
        """
        self.epoch += 1
        self.journal.append(
            {
                "v": 1,
                "kind": INTENT_KIND,
                "epoch": self.epoch,
                "moves": [
                    [name, src, dst, [[sid, path] for sid, path in leaves]]
                    for name, src, dst, leaves in moves
                ],
            }
        )
        self.plane._emit(
            "plane.migration_intent",
            epoch=self.epoch,
            subtrees=len(moves),
            leaves=sum(len(m[3]) for m in moves),
        )
        return self.epoch

    def commit_migration(self, epoch: int) -> None:
        """Close the batch: every move completed (or rolled back)."""
        self.journal.append({"v": 1, "kind": COMMIT_KIND, "epoch": epoch})
        self.plane._emit("plane.migration_commit", epoch=epoch)

    def torn_intent(self) -> Optional[dict]:
        """The newest journal record iff it is an uncommitted intent."""
        rec = self.journal.recover()
        snap = rec.snapshot
        if snap is not None and snap.get("kind") == INTENT_KIND:
            return snap
        return None

    # ------------------------------------------------------------------
    # Salvage (crash recovery)
    # ------------------------------------------------------------------
    def _live_fallback(self, *preferred: Optional[int]) -> Optional[int]:
        """First live cell among ``preferred``, else the lowest live."""
        dead = self.dead_cells
        for cell in preferred:
            if cell is not None and cell not in dead:
                return cell
        for cell in range(self.plane.cells):
            if cell not in dead:
                return cell
        return None

    def _rebuild_subject(self, sid: int) -> ProcessSubject:
        """Reconstruct a released-but-unadopted subject from durable
        truth: the share tree (share) and the plane's worker map (pid).
        A real controller restart has no in-memory Subject to recover —
        only what the tree and kernel still know."""
        plane = self.plane
        eff = plane.tree.effective_shares()
        return ProcessSubject(
            sid=sid, share=eff[sid], pid=plane.workers[sid].pid
        )

    def salvage(self) -> int:
        """Complete or roll back a torn migration batch; returns leaves
        re-placed.

        Per subtree in the torn intent: if the destination already
        adopted any leaf, the move completes *forward* (subtree
        atomicity — a tenant's members are never split across cells);
        otherwise it rolls back to the source.  Dead cells are never
        adopted into (the fence), released-but-unadopted subjects are
        rebuilt from the tree and kernel truth, stale per-sid epochs are
        skipped, and any pid left stopped is resumed.  Idempotent: a
        clean journal salvages nothing.
        """
        intent = self.torn_intent()
        self.crashed = False
        if intent is None:
            return 0
        plane = self.plane
        kapi = plane.kernel.kapi
        epoch = int(intent["epoch"])
        placed = 0
        for name, src_cell, dst_cell, leaves in intent["moves"]:
            sids = [int(sid) for sid, _ in leaves]
            owners = {sid: plane.cell_of_sid(sid) for sid in sids}
            forward = any(owners[sid] == dst_cell for sid in sids)
            target = self._live_fallback(
                dst_cell if forward else src_cell,
                src_cell if forward else dst_cell,
            )
            if target is None:  # pragma: no cover - all cells dead
                continue
            for sid in sids:
                if not self.fence_ok(sid, epoch):
                    self.fenced_adopts += 1
                    continue  # a newer epoch already moved this sid
                cur = owners[sid]
                if cur == target:
                    continue
                if cur is not None:
                    subject = plane.agents[cur].release_subject(sid, kapi)
                else:
                    subject = self._rebuild_subject(sid)
                plane._adopt_into(target, subject, epoch=epoch)
                placed += 1
            # Belt and braces: a tear between a release's individual
            # resumes cannot happen in-process, but kernel truth is
            # checked anyway — no salvaged pid stays stopped.
            for sid in sids:
                pid = plane.workers[sid].pid
                try:
                    if kapi.is_stopped(pid):
                        kapi.kill(pid, SIGCONT)
                except NoSuchProcessError:
                    continue
            plane.assignment[name] = target
        self.salvages += 1
        self.salvaged_leaves += placed
        self.journal.append(
            {"v": 1, "kind": "migration.salvage", "epoch": epoch,
             "leaves": placed}
        )
        self.commit_migration(epoch)
        self.plane._emit("plane.salvage", epoch=epoch, leaves=placed)
        return placed

    # ------------------------------------------------------------------
    # Plane maintenance
    # ------------------------------------------------------------------
    def orphaned_cells(self) -> list[int]:
        """Dead cells whose agents still own subjects (need re-homing)."""
        return [
            cell
            for cell in sorted(self.dead_cells)
            if (agent := self.plane.agents.get(cell)) is not None
            and agent.subjects
        ]

    def tick(self) -> int:
        """One control-plane maintenance pass; returns leaves moved.

        Runs after every ``run_until`` segment: salvage any torn batch
        left by a crashed controller, then re-home dead cells' subtrees
        onto survivors via the ordinary (dead-cell-excluding) partition.
        With no faults injected this touches nothing — the differential
        battery pins that it is schedule-invisible.
        """
        moved = 0
        if self.crashed or self.torn_intent() is not None:
            moved += self.salvage()
        if self.orphaned_cells():
            if self._live_fallback() is None:
                self.plane._emit("plane.quorum_lost", cells=self.plane.cells)
                return moved
            rehomed = 0
            while True:
                try:
                    rehomed += self.plane.rebalance()
                    break
                except MigrationTornError:
                    # A tear scheduled into the re-home itself.  The
                    # readmit guard (exception mode) parks the torn
                    # subtree back on its *dead* source cell, so waiting
                    # a tick would leave it orphaned for a full control
                    # step: salvage the journaled intent now — the
                    # live-fallback placement lands the leaves on
                    # survivors — and retry.  Each tear consumes one
                    # armed fault, so this terminates.
                    salvaged = self.salvage()
                    moved += salvaged
                    rehomed += salvaged
                    if not self.orphaned_cells():
                        break
            if rehomed:
                self.rehomes += 1
                self.rehomed_leaves += rehomed
                self.last_rehome_us = self.plane.engine.now
                for cell in self.dead_cells:
                    health = self.health[cell]
                    if health.rehomed_at_us is None and not (
                        self.plane.agents.get(cell)
                        and self.plane.agents[cell].subjects
                    ):
                        health.rehomed_at_us = self.plane.engine.now
                self.plane._emit(
                    "plane.rehome",
                    leaves=rehomed,
                    dead_cells=sorted(self.dead_cells),
                )
        return moved

    # ------------------------------------------------------------------
    # Census (obs bridge, chaos episodes, ``repro top --tree``)
    # ------------------------------------------------------------------
    @property
    def cell_restarts(self) -> int:
        """Restarts granted across every cell supervisor."""
        return sum(h.supervisor.restarts for h in self.health.values())


__all__ = [
    "COMMIT_KIND",
    "CellHealth",
    "INTENT_KIND",
    "PlaneResilience",
    "PlaneResilienceConfig",
]
