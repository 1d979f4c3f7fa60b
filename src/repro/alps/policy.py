"""Membership policy over one ALPS core, written once for both drivers.

:class:`~repro.alps.algorithm.AlpsCore` is the paper's Figure 3: who is
eligible, given who is in the group.  Everything layered on top decides
*who is in the group* — admission control and per-subtree gates, the
degradation ladder's shed and readmit, share-tree reweighs, departures
— and a share is a ratio under contention, so two drivers that disagree
on who contends enforce two different ratios.  :class:`AlpsPolicy`
makes each of those decisions once, for the simulated
:class:`~repro.alps.agent.AlpsAgent` and the real-Linux
:class:`~repro.hostos.controller.HostAlps` alike.

A driver reaches its processes through a port of three callables:

* ``admit(item) -> int`` — start enforcing ``item`` (any object with a
  ``sid`` and a mutable ``share``, e.g. a
  :class:`~repro.alps.subjects.Subject`): baseline its processes' CPU
  readings and return how many it baselined; 0 means the item is gone
  and must not join;
* ``release(sid) -> int`` — stop enforcing a member: resume and forget
  its processes; returns how many stopped ones it resumed;
* ``now() -> int`` — the driver's clock (µs), for event timestamps.

The policy owns the core's membership and the ``overload.*`` /
``sharetree.*`` events.  It returns counts, never costs: the simulated
agent turns them into Table 1 charges, the host pays in real time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from repro.errors import SchedulerConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alps.algorithm import AlpsCore
    from repro.obs.observer import Observer
    from repro.overload.guard import OverloadGuard
    from repro.sharetree.tree import ShareNode, ShareTree


class AlpsPolicy:
    """Admission, degradation and share-tree policy over one core."""

    __slots__ = (
        "core",
        "members",
        "shed",
        "guard",
        "tree",
        "obs",
        "cadence_us",
        "last_wake_us",
        "_admit",
        "_release",
        "_now",
    )

    def __init__(
        self,
        core: "AlpsCore",
        members: dict[int, Any],
        admit: Callable[[Any], int],
        release: Callable[[int], int],
        now: Callable[[], int],
    ) -> None:
        self.core = core
        #: sid -> item of every enforced member.
        self.members = members
        #: sid -> item the SHED rung released to best effort, kept aside
        #: (out of the core) until the ladder walks back down.
        self.shed: dict[int, Any] = {}
        #: Overload guard (docs/overload.md); None = no overload layer.
        self.guard: Optional["OverloadGuard"] = None
        #: Share tree (docs/share_tree.md); None = the flat model.
        self.tree: Optional["ShareTree"] = None
        #: Where ``overload.*`` / ``sharetree.*`` events go; None = nowhere.
        self.obs: Optional["Observer"] = None
        #: Wake-to-wake period the driver intended when it last slept.
        self.cadence_us = core.quantum_us
        #: Previous wake's time; -1 = none (startup, crash-restart), so
        #: downtime never reads as starvation.
        self.last_wake_us = -1
        self._admit = admit
        self._release = release
        self._now = now

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def submit(self, item: Any, path: Optional[str] = None) -> bool:
        """Offer an arrival; True iff it joined the enforced set now.

        Without a guard (or with spare capacity) it joins at once;
        otherwise it waits in the guard's FIFO queue and joins at a
        later :meth:`wake`.  With a ``path`` it is placed in the share
        tree through its subtree's own gate instead (nearest gated
        ancestor; the leaf is created only on admission, so a queued
        arrival does not dilute its siblings while it waits).  Both
        queues hold ``(item, path)`` entries.
        """
        if path is not None:
            return self._submit_to_tree(item, path)
        guard = self.guard
        if guard is None:
            return self._join(item) > 0
        queue = guard.admission
        if not queue.submit(
            (item, None), len(self.core.subjects), paused=guard.admission_paused
        ):
            self._emit("overload.queued", sid=item.sid, depth=queue.depth)
            return False
        if not self._join(item):
            return False
        self._emit("overload.admitted", sid=item.sid)
        return True

    def _submit_to_tree(self, item: Any, path: str) -> bool:
        tree = self.tree
        if tree is None:
            raise SchedulerConfigError("a path submit requires an attached share tree")
        gate = tree.admission_for(tree.node(path.rpartition("/")[0]))
        if gate is not None:
            queue = gate.admission
            assert queue is not None
            if not queue.submit((item, path), self._admitted_under(tree, gate)):
                self._emit(
                    "sharetree.queued", sid=item.sid, path=path, depth=queue.depth
                )
                return False
        tree.leaf(path, sid=item.sid, weight=item.share)
        if not self._join(item):
            tree.remove(path)  # died before admission
            return False
        self.reweigh()
        self._emit("sharetree.admitted", sid=item.sid, path=path)
        return True

    def adopt(self, item: Any) -> bool:
        """Enforce a member admitted elsewhere (a cell migration):
        admission control is deliberately bypassed."""
        if not self._join(item):
            return False
        self.reweigh()
        return True

    def _join(self, item: Any) -> int:
        """Enforce ``item`` from now on; pids baselined, 0 if it is gone."""
        npids = self._admit(item)
        if npids:
            self.members[item.sid] = item
            self.core.add_subject(item.sid, item.share)
        return npids

    # ------------------------------------------------------------------
    # Departures
    # ------------------------------------------------------------------
    def release(self, sid: int) -> Any:
        """Stop enforcing ``sid`` for good (cell migration); returns its
        item.  A shed member is already best effort and just leaves the
        shed set."""
        item = self.members.get(sid)
        if item is not None:
            self._drop(sid)
            return item
        item = self.shed.pop(sid, None)
        if item is None:
            raise SchedulerConfigError(f"sid {sid} is not controlled here")
        if self.guard is not None:
            self.guard.note_departed(sid)
        return item

    def _drop(self, sid: int) -> int:
        """The one release path: port release, then out of the core."""
        resumed = self._release(sid)
        del self.members[sid]
        if sid in self.core.subjects:
            self.core.remove_subject(sid)
        return resumed

    def depart(self, sids: Sequence[int]) -> None:
        """Members found dead leave the core and the tree; their tree
        siblings' fractions grow (a flat-equivalent tree no-ops)."""
        core = self.core
        for sid in sids:
            self.members.pop(sid, None)
            if sid in core.subjects:
                core.remove_subject(sid)
        tree = self.tree
        if tree is not None:
            changed = False
            for sid in sids:
                changed |= tree.discard_sid(sid)
            if changed:
                self.reweigh()

    # ------------------------------------------------------------------
    # Membership of multi-process members (Section 5)
    # ------------------------------------------------------------------
    def refresh(
        self, view: Any, sids: Optional[Iterable[int]] = None
    ) -> list[tuple[int, set[int], set[int], bool]]:
        """Re-enumerate members' (or ``sids``') pids through ``view``.

        Returns ``(sid, joined, left, suspended)`` per changed member.
        The rule both drivers apply: baseline each joiner and, while
        ``suspended``, stop it at discovery; forget each leaver.
        """
        changes = []
        for sid in self.members if sids is None else sids:
            item = self.members.get(sid)
            if item is None:
                continue
            before = set(item.pids(view))
            if item.refresh(view):
                after = set(item.pids(view))
                st = self.core.subjects.get(sid)
                suspended = st is not None and not st.eligible
                changes.append((sid, after - before, before - after, suspended))
        return changes

    # ------------------------------------------------------------------
    # Shares
    # ------------------------------------------------------------------
    def set_share(self, sid: int, share: int) -> None:
        """Reweight one member (takes effect next quantum)."""
        self.core.set_share(sid, share)
        item = self.members.get(sid)
        if item is not None:
            item.share = share

    def reweigh(self) -> None:
        """Apply the tree's effective shares to the core.

        ``AlpsCore.set_share`` early-outs on a zero delta, so this is
        free (and trace-invisible) whenever the resolved shares already
        match — the flat-equivalence case.
        """
        tree = self.tree
        if tree is None:
            return
        core_subjects = self.core.subjects
        for sid, share in tree.effective_shares().items():
            if sid in core_subjects:
                self.set_share(sid, share)

    def set_tree_weight(self, path: str, weight: int) -> None:
        """Reweight a tree node; every descendant leaf follows."""
        tree = self.tree
        if tree is None:
            raise SchedulerConfigError("no share tree attached")
        tree.set_weight(path, weight)
        self.reweigh()

    # ------------------------------------------------------------------
    # The wake hook
    # ------------------------------------------------------------------
    def wake(self, now: int) -> tuple[int, int, int, int]:
        """Run the policy's share of one driver wake at time ``now``.

        Feeds the cadence slip (this wake's gap since the last, minus
        :attr:`cadence_us`) to the guard's ladder and enacts any step,
        then drains the guard's queue and the tree's gates into spare
        capacity.  Pure bookkeeping unless a rung changes or queued
        arrivals fit.  Returns ``(resumed, readmitted, drained,
        gated)``: stopped pids a shed resumed, then pids baselined by
        readmission, by the guard's queue and by the tree's gates.
        """
        resumed = readmitted = drained = gated = 0
        guard = self.guard
        if guard is not None:
            prev, self.last_wake_us = self.last_wake_us, now
            if prev >= 0:
                delta = guard.observe_wake(
                    now - prev - self.cadence_us, self.core.quantum_us
                )
                if delta:
                    resumed, readmitted = self.enact(delta)
            if guard.admission.depth and not guard.admission_paused:
                drained = self._drain(guard)
        tree = self.tree
        # _gates first: ungated trees (the common flat-equivalent case)
        # must not pay a generator sum on every wake.
        if tree is not None and tree._gates and tree.pending_admissions:
            gated = self._drain_gates(tree)
        return resumed, readmitted, drained, gated

    def enact(self, delta: int) -> tuple[int, int]:
        """Carry out a ladder step the guard just took (``delta`` ±1).

        Returns ``(resumed, readmitted)``: stopped pids resumed by a
        shed, pids re-baselined by a readmission.
        """
        from repro.overload.ladder import Rung

        guard = self.guard
        assert guard is not None
        self.core.postpone_boost = guard.postpone_boost
        self._emit(
            "overload.engage" if delta > 0 else "overload.relax",
            rung=int(guard.rung),
            slip_ewma_quanta=round(guard.slip.ewma_quanta, 3),
        )
        if delta > 0 and guard.rung >= Rung.SHED:
            return self._shed_tail(guard), 0
        if delta < 0 and guard.rung < Rung.SHED and guard.shed_sids:
            return 0, self._readmit(guard)
        return 0, 0

    def _shed_tail(self, guard: "OverloadGuard") -> int:
        """SHED rung: release the lowest-share tail to best effort —
        the kernel schedules it, not us."""
        quota = guard.shed_quota(len(self.core.subjects))
        if quota <= 0:
            return 0
        shares = {sid: st.share for sid, st in self.core.subjects.items()}
        resumed = 0
        for sid in guard.select_shed(shares, quota):
            item = self.members.get(sid)
            if item is None:  # pragma: no cover - raced a departure
                continue
            resumed += self._drop(sid)
            self.shed[sid] = item
            guard.note_shed(sid)
            self._emit("overload.shed", sid=sid)
        return resumed

    def _readmit(self, guard: "OverloadGuard") -> int:
        """Below SHED again: the shed tail rejoins with fresh baselines
        and full allowances; best-effort consumption is forgiven."""
        npids = 0
        for sid in guard.shed_sids:
            item = self.shed.pop(sid, None)
            joined = self._join(item) if item is not None else 0
            if not joined:
                guard.note_departed(sid)
                continue
            npids += joined
            guard.note_readmitted(sid)
            self._emit("overload.readmit", sid=sid)
        return npids

    def _drain(self, guard: "OverloadGuard") -> int:
        """Admit the guard's queued arrivals into spare capacity."""
        npids = 0
        for item, _ in guard.admission.admit_ready(
            len(self.core.subjects), paused=guard.admission_paused
        ):
            joined = self._join(item)
            if joined:
                npids += joined
                self._emit("overload.admitted", sid=item.sid)
        return npids

    def _drain_gates(self, tree: "ShareTree") -> int:
        """Admit queued subtree arrivals into spare capacity, per gate."""
        npids = 0
        for gate in tree.gates():
            queue = gate.admission
            if queue is None or not queue.depth:
                continue
            for item, path in queue.admit_ready(self._admitted_under(tree, gate)):
                try:
                    tree.leaf(path, sid=item.sid, weight=item.share)
                except SchedulerConfigError:
                    continue  # its branch vanished while it waited
                joined = self._join(item)
                if not joined:
                    tree.remove(path)
                    continue
                npids += joined
                self._emit("sharetree.admitted", sid=item.sid, path=path)
        if npids:
            self.reweigh()
        return npids

    def _admitted_under(self, tree: "ShareTree", gate: "ShareNode") -> int:
        """Enforced members of a gated subtree (what its gate counts)."""
        core_subjects = self.core.subjects
        return sum(1 for leaf in tree.leaves(gate) if leaf.sid in core_subjects)

    def _emit(self, kind: str, **fields: Any) -> None:
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.events.emit(self._now(), kind, **fields)
