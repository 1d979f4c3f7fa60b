"""Sharded multi-cell control plane: many ALPS cells on one SMP kernel.

One ALPS agent is a single process; past a few hundred subjects its own
measurement work exceeds its fair share (the §4.2 breakdown).  The
production-scale answer is *sharding*: run many concurrent ALPS cells
— one agent process per simulated CPU core, extending the
``bench_extension_smp`` seed — and give each cell ownership of whole
**subtrees** of the share tree, so intra-tenant proportions are always
enforced by exactly one agent.

:class:`ShardedAlpsPlane` builds the whole arrangement on one simulated
SMP kernel: it partitions the tree's top-level subtrees across cells
greedily by effective weight (LPT — heaviest subtree to the least
loaded cell, deterministic tie-break by creation order), spawns one
spinner worker per leaf and one ALPS agent per non-empty cell, and
keeps the partition balanced as weights change: :meth:`set_weight`
reweighs every cell's core from the shared tree and :meth:`rebalance`
migrates whole subtrees between cells when the greedy assignment moves
(:meth:`AlpsAgent.release_subject` → :meth:`AlpsAgent.adopt_subject`,
counting ``sharetree.migrate`` events and the tree's ``migrations``
bridge counter).

The plane is a *control plane*: migrations and reweighs happen between
``run_until`` calls, modelling an out-of-band controller, and are fully
deterministic for a fixed seed and call sequence.

Built with ``resilience=PlaneResilienceConfig(...)`` the plane gains
the fault-tolerance stack of :mod:`repro.sharetree.resilience`:
per-cell supervision with plane-level re-homing, journaled two-phase
migrations with crash salvage, and the epoch fence.  Without injected
faults the stack is schedule-invisible (byte-identical runs, pinned by
the differential battery).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.alps.agent import AlpsAgent, spawn_alps
from repro.alps.config import AlpsConfig
from repro.alps.subjects import ProcessSubject, Subject
from repro.errors import SchedulerConfigError, TransientReadError
from repro.kernel.kconfig import KernelConfig, make_kernel
from repro.kernel.process import Process
from repro.sharetree.tree import ShareNode, ShareTree
from repro.sim.engine import Engine
from repro.workloads.spinner import spinner_behavior

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kapi import KernelAPI
    from repro.obs.observer import Observer
    from repro.sharetree.resilience import PlaneResilienceConfig
    from repro.sim.trace import Tracer


class ShardedAlpsPlane:
    """Concurrent ALPS cells sharded over a share tree's subtrees."""

    def __init__(
        self,
        tree: ShareTree,
        alps_config: Optional[AlpsConfig] = None,
        *,
        cells: int = 2,
        seed: int = 0,
        observer: Optional["Observer"] = None,
        resilience: Optional["PlaneResilienceConfig"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if cells < 1:
            raise SchedulerConfigError(f"cells must be >= 1, got {cells}")
        if not tree.subtrees():
            raise SchedulerConfigError("the share tree has no subtrees")
        if not tree.leaves():
            raise SchedulerConfigError("the share tree has no leaves")
        self.tree = tree
        self.cells = cells
        self.config = alps_config if alps_config is not None else AlpsConfig()
        self.observer = observer
        self.engine = Engine(seed=seed, observer=observer, tracer=tracer)
        # One simulated CPU per cell: each agent effectively owns a
        # core's worth of control work (the bench_extension_smp seed).
        self.kernel = make_kernel(self.engine, KernelConfig(ncpus=cells))
        if observer is not None:
            self.kernel.attach_observer(observer)
        #: The fault-tolerance stack (docs/share_tree.md, "Plane fault
        #: tolerance"); None runs the bare PR 8 plane.
        self.resilience = None
        if resilience is not None:
            from repro.sharetree.resilience import PlaneResilience

            self.resilience = PlaneResilience(self, resilience)
        #: Subtree name -> owning cell index (the shard map).
        self.assignment: dict[str, int] = self._partition()
        #: Leaf sid -> its worker process.
        self.workers: dict[int, Process] = {}
        #: Cell index -> agent (cells left empty by the partition have
        #: no agent; they still contribute kernel CPUs).
        self.agents: dict[int, AlpsAgent] = {}
        self.agent_procs: dict[int, Process] = {}
        #: Leaves moved between cells by :meth:`rebalance`.
        self.migrations = 0
        #: Rebalance passes that moved at least one subtree.
        self.rebalances = 0
        eff = tree.effective_shares()
        for uid, leaf in enumerate(tree.leaves()):
            self.workers[leaf.sid] = self.kernel.spawn(  # type: ignore[index]
                leaf.path.replace("/", "."), spinner_behavior(), uid=100 + uid
            )
        for cell in range(cells):
            subjects = [
                ProcessSubject(
                    sid=leaf.sid,  # type: ignore[arg-type]
                    share=eff[leaf.sid],  # type: ignore[index]
                    pid=self.workers[leaf.sid].pid,  # type: ignore[index]
                )
                for name in self._subtrees_of(cell)
                for leaf in tree.leaves(tree.node(name))
            ]
            if not subjects:
                continue
            self._spawn_cell(cell, subjects)
        self._emit("sharetree.attach", cells=cells, subtrees=len(self.assignment))

    # ------------------------------------------------------------------
    def _emit(self, kind: str, **fields) -> None:
        obs = self.observer
        if obs is not None and obs.enabled:
            obs.events.emit(self.engine.now, kind, **fields)

    def _partition(
        self, exclude: frozenset[int] = frozenset()
    ) -> dict[str, int]:
        """Greedy LPT: heaviest subtree to the least-loaded cell.

        Deterministic: subtrees are ordered by (effective weight desc,
        creation order), ties between cells break to the lowest index.
        ``exclude`` removes cells from consideration (dead cells during
        a re-home pass).
        """
        candidates = [c for c in range(self.cells) if c not in exclude]
        if not candidates:
            raise SchedulerConfigError("no live cells left to partition over")
        order = list(self.tree.subtrees())
        weights = {
            node.name: self.tree.effective_weight(node.path) for node in order
        }
        ranked = sorted(
            order, key=lambda n: (-weights[n.name], order.index(n))
        )
        load = {c: 0 for c in candidates}
        assignment: dict[str, int] = {}
        for node in ranked:
            cell = min(candidates, key=lambda c: (load[c], c))
            assignment[node.name] = cell
            load[cell] += weights[node.name]
        return assignment

    def _spawn_cell(self, cell: int, subjects: Sequence[Subject]) -> AlpsAgent:
        """Spawn a cell's agent (supervised when resilience is on)."""
        if self.resilience is not None:
            proc, agent = self.resilience.spawn_cell(cell, subjects)
        else:
            proc, agent = spawn_alps(
                self.kernel,
                list(subjects),
                self.config,
                name=f"alps-c{cell}",
                sharetree=self.tree,
            )
        self.agents[cell] = agent
        self.agent_procs[cell] = proc
        return agent

    def _subtrees_of(self, cell: int) -> list[str]:
        """Subtree names owned by ``cell``, in creation order."""
        return [
            node.name
            for node in self.tree.subtrees()
            if self.assignment.get(node.name) == cell
        ]

    # ------------------------------------------------------------------
    def run_until(self, t_us: int) -> None:
        """Advance the whole plane to virtual time ``t_us``.

        With resilience on, a maintenance tick follows the segment:
        torn migrations are salvaged and dead cells' subtrees re-homed
        (:meth:`~repro.sharetree.resilience.PlaneResilience.tick`).
        Fault-free ticks touch nothing, so the call is schedule-
        invisible.
        """
        self.engine.run_until(t_us)
        if self.resilience is not None:
            self.resilience.tick()

    def agent_of(self, subtree: str) -> AlpsAgent:
        """The agent currently enforcing ``subtree``."""
        cell = self.assignment.get(subtree)
        if cell is None or cell not in self.agents:
            raise SchedulerConfigError(f"no agent owns subtree {subtree!r}")
        return self.agents[cell]

    def cell_of_sid(self, sid: int) -> Optional[int]:
        """The cell whose agent currently controls ``sid``."""
        for cell, agent in self.agents.items():
            if sid in agent.subjects:
                return cell
        return None

    def members(self) -> dict[int, set[int]]:
        """Cell index -> controlled sids (the conservation surface)."""
        return {
            cell: set(agent.subjects) for cell, agent in self.agents.items()
        }

    # ------------------------------------------------------------------
    def set_weight(self, path: str, weight: int) -> None:
        """Reweight a tree node, reweigh every cell, and rebalance."""
        self.tree.set_weight(path, weight)
        for agent in self.agents.values():
            agent.reweigh_from_tree()
        self._emit("sharetree.reweigh", path=path, weight=weight)
        self.rebalance()

    def rebalance(self) -> int:
        """Re-run the greedy partition; migrate subtrees that moved.

        Returns the number of leaves migrated.  Whole subtrees move
        atomically — a tenant's members are never split across cells —
        and every migrated leaf is released (stopped pids resumed) by
        its old agent before the new one adopts it, so no process can
        be wedged in SIGSTOP by a rebalance.

        Crash safety: an exception between release and adopt rolls the
        torn subtree back to its source cell (readmit-to-source guard)
        before propagating, so no subject is ever stranded outside
        every cell.  With resilience on, the whole batch is bracketed
        by journaled intent/commit records (write-ahead), so even a
        controller death mid-batch — a crash-mode
        :class:`~repro.faults.plan.MigrationTear`, which deliberately
        skips the in-process guard — is healed by
        :meth:`~repro.sharetree.resilience.PlaneResilience.salvage`.
        Per-leaf ``sharetree.migrate`` events are emitted only after a
        subtree's adoptions all complete, between batch-level
        ``sharetree.migrate.begin``/``sharetree.migrate.commit``
        markers, so the event log never shows a migration that never
        finished.
        """
        res = self.resilience
        exclude = res.dead_cells if res is not None else frozenset()
        new_assignment = self._partition(exclude)
        kapi = self.kernel.kapi
        # Plan the whole batch up front: subtrees whose owning cell
        # changes, with the leaves their source agent actually controls.
        planned: list[tuple[str, Optional[int], int, list[tuple[int, str]]]]
        planned = []
        for name, new_cell in new_assignment.items():
            old_cell = self.assignment.get(name)
            if old_cell == new_cell:
                continue
            src = self.agents.get(old_cell) if old_cell is not None else None
            leaf_moves = []
            for leaf in self.tree.leaves(self.tree.node(name)):
                sid = leaf.sid
                assert sid is not None
                if src is None or sid not in src.subjects:
                    continue  # pragma: no cover - defensive
                leaf_moves.append((sid, leaf.path))
            if leaf_moves:
                planned.append((name, old_cell, new_cell, leaf_moves))
        if not planned:
            self.assignment = new_assignment
            return 0
        epoch = None
        if res is not None:
            res.arm_tears(self.engine.now)
            epoch = res.begin_migration(planned)
        self._emit(
            "sharetree.migrate.begin",
            subtrees=len(planned),
            leaves=sum(len(m[3]) for m in planned),
        )
        moved_leaves = 0
        moved_subtrees = 0
        for name, old_cell, new_cell, leaf_moves in planned:
            src = self.agents[old_cell]  # planned ⇒ src exists
            released: list[tuple[int, str, Subject]] = []
            completed: list[tuple[int, str, Subject]] = []
            try:
                for sid, path in leaf_moves:
                    if res is not None:
                        res.migration_op()
                    released.append(
                        (sid, path, src.release_subject(sid, kapi))
                    )
                if self.agents.get(new_cell) is None:
                    # A previously empty cell gains its first subtree:
                    # spawn its agent with the migrating members as the
                    # founding group (baselines at its INIT phase).
                    if res is not None:
                        res.migration_op()
                    self._spawn_cell(
                        new_cell, [subj for _, _, subj in released]
                    )
                    completed, released = released, []
                else:
                    dst = self.agents[new_cell]
                    for item in list(released):
                        sid, path, subject = item
                        if res is not None:
                            res.migration_op()
                        self._adopt_with_retry(dst, subject, kapi)
                        if res is not None:
                            res.note_owner(sid, new_cell, epoch)
                        released.remove(item)
                        completed.append(item)
            except Exception:
                if not (res is not None and res.crashed):
                    # Readmit-to-source guard: roll the torn subtree
                    # back whole (atomicity), so the exception cannot
                    # strand a released subject outside every cell.  A
                    # crash-mode tear skips this by design — salvage
                    # replays the journaled intent instead.
                    self._rollback_subtree(
                        old_cell, new_cell, completed, released, kapi
                    )
                raise
            moved_subtrees += 1
            moved_leaves += len(completed)
            self.assignment[name] = new_cell
            self.migrations += len(completed)
            self.tree.note_migration(len(completed))
            for sid, path, _ in completed:
                self._emit(
                    "sharetree.migrate",
                    sid=sid, path=path, src=old_cell, dst=new_cell,
                )
        self.assignment = new_assignment
        if moved_leaves:
            self.rebalances += 1
            self._emit(
                "sharetree.rebalance",
                subtrees=moved_subtrees, leaves=moved_leaves,
            )
        self._emit(
            "sharetree.migrate.commit",
            subtrees=moved_subtrees, leaves=moved_leaves,
        )
        if res is not None and epoch is not None:
            res.commit_migration(epoch)
        return moved_leaves

    def _adopt_with_retry(
        self, dst: AlpsAgent, subject: Subject, kapi: "KernelAPI"
    ) -> bool:
        """Adopt with bounded retries on transient kernel-read failures.

        Exhausted retries re-raise; the caller's readmit guard then
        returns the subject to its source cell, so a flaky accounting
        surface degrades a migration instead of losing a subject.
        """
        res = self.resilience
        retries = res.config.adopt_retries if res is not None else 0
        attempt = 0
        while True:
            try:
                return dst.adopt_subject(subject, kapi)
            except TransientReadError:
                attempt += 1
                if res is not None:
                    res.adopt_retries += 1
                if attempt > retries:
                    raise

    def _adopt_into(
        self, cell: int, subject: Subject, *, epoch: Optional[int] = None
    ) -> None:
        """Place one subject into ``cell`` (salvage path), spawning the
        cell's agent if it has none, and stamp the epoch fence."""
        agent = self.agents.get(cell)
        if agent is None:
            self._spawn_cell(cell, [subject])
        else:
            self._adopt_with_retry(agent, subject, self.kernel.kapi)
        if self.resilience is not None:
            self.resilience.note_owner(subject.sid, cell, epoch)

    def _rollback_subtree(
        self,
        old_cell: Optional[int],
        new_cell: int,
        completed: list[tuple[int, str, Subject]],
        released: list[tuple[int, str, Subject]],
        kapi: "KernelAPI",
    ) -> None:
        """Return a torn subtree's members to the source cell.

        Adoptions that already completed are released from the
        destination first, so the subtree stays co-located; released-
        but-unadopted subjects are readmitted directly.  Best effort by
        design: conservation (no subject outside every cell, no pid
        left stopped) beats placement — a follow-up rebalance will
        re-run the partition.
        """
        res = self.resilience
        src = self.agents.get(old_cell) if old_cell is not None else None
        dst = self.agents.get(new_cell)
        to_readmit = list(released)
        for sid, path, subject in completed:
            if dst is not None and sid in dst.subjects:
                to_readmit.append((sid, path, dst.release_subject(sid, kapi)))
        for sid, path, subject in to_readmit:
            if src is not None:
                src.adopt_subject(subject, kapi)
                if res is not None:
                    res.note_owner(sid, old_cell)  # type: ignore[arg-type]
                    res.readmits += 1
                self._emit(
                    "plane.migration_readmit", sid=sid, path=path,
                    cell=old_cell,
                )

    # ------------------------------------------------------------------
    # Aggregation (experiments / benchmarks)
    # ------------------------------------------------------------------
    def attained_us(self) -> dict[int, int]:
        """Cumulative measured CPU (µs) per sid across every cell."""
        totals: dict[int, int] = {}
        for agent in self.agents.values():
            for sid in agent.subjects:
                totals[sid] = agent.cumulative_cpu_of(sid)
        return totals

    def subtree_attained_us(self) -> dict[str, int]:
        """Cumulative measured CPU (µs) per top-level subtree."""
        per_sid = self.attained_us()
        out: dict[str, int] = {}
        for node in self.tree.subtrees():
            out[node.name] = sum(
                per_sid.get(leaf.sid, 0)  # type: ignore[arg-type]
                for leaf in self.tree.leaves(node)
            )
        return out

    def overhead_fraction(self) -> float:
        """All agents' CPU over aggregate machine time (SMP-aware)."""
        elapsed = self.kernel.now * self.cells
        if elapsed <= 0:
            return 0.0
        spent = sum(
            self.kernel.getrusage(proc.pid)
            for proc in self.agent_procs.values()
        )
        return spent / elapsed
