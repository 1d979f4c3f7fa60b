"""Struct-of-arrays batch-stepped kernel backend.

:class:`BatchKernel` is the ``backend="batch"`` implementation selected
through :func:`repro.kernel.make_kernel`.  It keeps the event-driven
skeleton of :class:`~repro.kernel.kernel.Kernel` (so every event fires
at the same instant, with the same tag, in the same order — the
byte-identity contract of tests/perf/test_backend_matrix.py) and
replaces the per-process Python bookkeeping with batch passes over
struct-of-arrays state:

* **Vectorized one-second decay.**  The ``schedcpu`` pass gathers
  ``estcpu``/``nice``/``slptime`` into numpy arrays, applies the BSD
  decay filter and the priority formula to the whole process table at
  once, and scatters back only what changed.  The arithmetic is
  elementwise float64 — operation-for-operation the same IEEE ops the
  eager scalar loop performs — so the results are bit-identical, not
  merely close (pinned by tests/kernel/test_batch_properties.py).
* **Bitmap run-queue selection.**  :class:`ArrayRunQueue` is a drop-in
  replacement for :class:`~repro.kernel.runqueue.RunQueue` backed by
  flat per-bucket arrays with head offsets and a single occupancy
  bitmap word; pick order is pinned equal to the linked-list queue by
  Hypothesis property tests.
* **Fused same-instant stepping.**  Construction flips the engine into
  fused mode (:meth:`repro.sim.engine.Engine.enable_fused_stepping`):
  all events sharing a timestamp are drained in one pass with a single
  clock write, with an order-preservation guard that falls back to the
  heap whenever a callback schedules or cancels work at the current
  instant.

The batch backend runs the **eager** (strict-equivalent) bookkeeping:
lazy sleeper decay is disabled because the batch pass makes the eager
sweep cheap, and because equivalence against ``strict`` is the
simplest possible contract.  Since ``strict`` and ``optimized`` are
already pinned byte-identical, all three backends agree.

See docs/performance.md ("The batch backend") for the state layout and
the fallback story.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import KernelError
from repro.kernel.kconfig import DEFAULT_CONFIG, KernelConfig
from repro.kernel.kernel import _EVPRI_HOUSEKEEPING, Kernel
from repro.kernel.priorities import batched_decay, batched_user_priority
from repro.kernel.process import NO_VALUE, Process, ProcState
from repro.kernel.runqueue import NQS, PPQ
from repro.sim.engine import Engine

#: Numeric codes for :class:`ProcState` in struct-of-arrays form.
STATE_CODES: dict[ProcState, int] = {
    ProcState.RUNNABLE: 0,
    ProcState.RUNNING: 1,
    ProcState.SLEEPING: 2,
    ProcState.ZOMBIE: 3,
}
_CODE_TO_STATE = {code: state for state, code in STATE_CODES.items()}


class SoaState:
    """Struct-of-arrays snapshot of per-process scheduler state.

    One row per process, in a stable order chosen at gather time (PCB
    table order, i.e. pid insertion order).  The columns cover exactly
    the state the scheduler reads or writes in its batch passes:

    ``pids``, ``estcpu``, ``priority``, ``nice``, ``slptime``,
    ``cpu_time``, ``run_start``, ``pending_burst``, ``state`` (codes
    per :data:`STATE_CODES`), ``stopped``, ``has_channel`` (sleeping on
    a wait channel), ``boost`` (:data:`NO_VALUE` when absent),
    ``on_runq`` (run-queue membership mask), and ``deadline`` (pending
    burst-completion or sleep-timeout firing time, :data:`NO_VALUE`
    when none is armed).

    :meth:`gather` and :meth:`scatter` are exact inverses over the
    scheduler-owned fields — the round-trip property test in
    tests/kernel/test_batch_properties.py pins ``gather → scatter`` as
    the identity.
    """

    __slots__ = (
        "pids",
        "estcpu",
        "priority",
        "nice",
        "slptime",
        "cpu_time",
        "run_start",
        "pending_burst",
        "state",
        "stopped",
        "has_channel",
        "boost",
        "on_runq",
        "deadline",
        "slot_of",
    )

    def __init__(self, n: int) -> None:
        self.pids = np.zeros(n, dtype=np.int64)
        self.estcpu = np.zeros(n, dtype=np.float64)
        self.priority = np.zeros(n, dtype=np.int64)
        self.nice = np.zeros(n, dtype=np.int64)
        self.slptime = np.zeros(n, dtype=np.int64)
        self.cpu_time = np.zeros(n, dtype=np.int64)
        self.run_start = np.zeros(n, dtype=np.int64)
        self.pending_burst = np.zeros(n, dtype=np.int64)
        self.state = np.zeros(n, dtype=np.int64)
        self.stopped = np.zeros(n, dtype=bool)
        self.has_channel = np.zeros(n, dtype=bool)
        self.boost = np.full(n, NO_VALUE, dtype=np.int64)
        self.on_runq = np.zeros(n, dtype=bool)
        self.deadline = np.full(n, NO_VALUE, dtype=np.int64)
        #: pid -> row index (the scatter side of the pid mapping).
        self.slot_of: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.pids)

    @classmethod
    def gather(
        cls,
        procs: Sequence[Process],
        *,
        on_runq: Optional[set[int]] = None,
    ) -> "SoaState":
        """Build arrays from process control blocks (one pass)."""
        soa = cls(len(procs))
        slot_of = soa.slot_of
        runq_pids = on_runq if on_runq is not None else ()
        for i, proc in enumerate(procs):
            slot_of[proc.pid] = i
            soa.pids[i] = proc.pid
            soa.estcpu[i] = proc.estcpu
            soa.priority[i] = proc.priority
            soa.nice[i] = proc.nice
            soa.slptime[i] = proc.slptime
            soa.cpu_time[i] = proc.cpu_time
            soa.run_start[i] = proc.run_start
            soa.pending_burst[i] = proc.pending_burst_us
            soa.state[i] = STATE_CODES[proc.state]
            soa.stopped[i] = proc.stopped
            soa.has_channel[i] = proc.wait_channel is not None
            if proc.boost_priority is not None:
                soa.boost[i] = proc.boost_priority
            soa.on_runq[i] = proc.pid in runq_pids
            handle = proc.burst_handle or proc.sleep_handle
            if handle is not None and handle.active:
                soa.deadline[i] = handle.time
        return soa

    def scatter(self, procs: Sequence[Process]) -> None:
        """Write the scheduler-owned columns back onto the PCBs.

        Only plain value fields are written (state enums and booleans
        included); event handles and wait-channel strings are kernel
        structure, not row state, and are left untouched.
        """
        if len(procs) != len(self.pids):
            raise KernelError(
                f"scatter row mismatch: {len(procs)} procs vs {len(self.pids)} rows"
            )
        for i, proc in enumerate(procs):
            if proc.pid != int(self.pids[i]):
                raise KernelError(
                    f"scatter pid mismatch at row {i}: "
                    f"{proc.pid} vs {int(self.pids[i])}"
                )
            proc.estcpu = float(self.estcpu[i])
            proc.priority = int(self.priority[i])
            proc.nice = int(self.nice[i])
            proc.slptime = int(self.slptime[i])
            proc.cpu_time = int(self.cpu_time[i])
            proc.run_start = int(self.run_start[i])
            proc.pending_burst_us = int(self.pending_burst[i])
            proc.state = _CODE_TO_STATE[int(self.state[i])]
            proc.stopped = bool(self.stopped[i])
            boost = int(self.boost[i])
            proc.boost_priority = None if boost == NO_VALUE else boost


class ArrayRunQueue:
    """Bitmap-selected, array-backed run queues.

    Semantically identical to :class:`~repro.kernel.runqueue.RunQueue`
    (32 FIFO buckets of 4 priority levels, lowest-occupied-bucket
    pick), but each bucket is a flat list with a head offset instead of
    a deque: pops advance the head without shifting storage, and the
    bucket compacts only when the dead prefix outgrows the live tail.
    The single-word occupancy bitmap makes the pick branch-free:
    ``(bits & -bits).bit_length() - 1`` is the best bucket.

    Pick-order equivalence with the linked-list queue under arbitrary
    operation scripts is pinned by Hypothesis tests
    (tests/kernel/test_batch_properties.py).
    """

    __slots__ = ("_buckets", "_heads", "_nonempty", "_count")

    def __init__(self) -> None:
        self._buckets: list[list[Process]] = [[] for _ in range(NQS)]
        self._heads: list[int] = [0] * NQS
        self._nonempty = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @staticmethod
    def _qindex(priority: int) -> int:
        if priority < 0 or priority >= NQS * PPQ:
            raise KernelError(f"priority {priority} out of range 0..{NQS * PPQ - 1}")
        return priority >> 2

    def insert(self, proc: Process) -> None:
        """Append ``proc`` to the tail of its priority bucket."""
        priority = proc.priority
        if priority < 0 or priority >= NQS * PPQ:
            raise KernelError(f"priority {priority} out of range 0..{NQS * PPQ - 1}")
        qi = priority >> 2
        self._buckets[qi].append(proc)
        self._nonempty |= 1 << qi
        self._count += 1

    def insert_head(self, proc: Process) -> None:
        """Prepend ``proc`` (used when a preempted process keeps its turn)."""
        qi = self._qindex(proc.priority)
        head = self._heads[qi]
        if head > 0:
            self._heads[qi] = head - 1
            self._buckets[qi][head - 1] = proc
        else:
            self._buckets[qi].insert(0, proc)
        self._nonempty |= 1 << qi
        self._count += 1

    def _settle(self, qi: int) -> None:
        """Drop an emptied bucket's storage and bitmap bit."""
        bucket = self._buckets[qi]
        head = self._heads[qi]
        if head >= len(bucket):
            bucket.clear()
            self._heads[qi] = 0
            self._nonempty &= ~(1 << qi)

    def remove(self, proc: Process) -> None:
        """Remove ``proc`` from whichever bucket holds it."""
        qi = self._qindex(proc.priority)
        if self._remove_from(qi, proc):
            return
        # Priority may have been recomputed since insertion; fall back
        # to a full scan, like the linked-list queue.
        for other_qi in range(NQS):
            if other_qi != qi and self._remove_from(other_qi, proc):
                return
        raise KernelError(f"pid {proc.pid} not on any run queue")

    def _remove_from(self, qi: int, proc: Process) -> bool:
        bucket = self._buckets[qi]
        head = self._heads[qi]
        for i in range(head, len(bucket)):
            if bucket[i] is proc:
                del bucket[i]
                self._count -= 1
                self._settle(qi)
                return True
        return False

    def best_priority(self) -> Optional[int]:
        """Priority of the head of the best non-empty bucket, or None."""
        bits = self._nonempty
        if not bits:
            return None
        qi = (bits & -bits).bit_length() - 1
        return self._buckets[qi][self._heads[qi]].priority

    def pop_best(self) -> Optional[Process]:
        """Remove and return the head of the lowest non-empty bucket."""
        bits = self._nonempty
        if not bits:
            return None
        qi = (bits & -bits).bit_length() - 1
        bucket = self._buckets[qi]
        head = self._heads[qi]
        proc = bucket[head]
        bucket[head] = None  # type: ignore[call-overload]  # drop the reference
        head += 1
        self._count -= 1
        if head >= len(bucket):
            bucket.clear()
            self._heads[qi] = 0
            self._nonempty &= ~(1 << qi)
        elif head > 32 and head * 2 > len(bucket):
            # Compact: the dead prefix outweighs the live tail.
            del bucket[:head]
            self._heads[qi] = 0
        else:
            self._heads[qi] = head
        return proc

    def __contains__(self, proc: Process) -> bool:
        for qi in range(NQS):
            bucket = self._buckets[qi]
            for i in range(self._heads[qi], len(bucket)):
                if bucket[i] is proc:
                    return True
        return False


class BatchKernel(Kernel):
    """Struct-of-arrays batch-stepped kernel (``backend="batch"``)."""

    def __init__(
        self,
        engine: Engine,
        config: KernelConfig = DEFAULT_CONFIG,
    ) -> None:
        super().__init__(engine, config)
        # Eager (strict-equivalent) bookkeeping: the vectorized pass
        # makes the per-second sweep cheap, and eager state means the
        # arrays never hold lazily-stale values.
        self._lazy = False
        self.runq = ArrayRunQueue()  # type: ignore[assignment]  # same surface
        #: Batch passes performed (perf counter; see perf_snapshot).
        self.perf_batch_passes = 0
        engine.enable_fused_stepping()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def soa_snapshot(self) -> SoaState:
        """Gather the full PCB table into struct-of-arrays form."""
        return SoaState.gather(list(self.procs.values()), on_runq=self._on_runq)

    def perf_snapshot(self) -> dict[str, int]:
        snap = super().perf_snapshot()
        snap["kernel.batch_passes"] = self.perf_batch_passes
        return snap

    # ------------------------------------------------------------------
    # Vectorized per-second decay (the schedcpu batch pass)
    # ------------------------------------------------------------------
    def _on_schedcpu(self, event) -> None:
        """Eager schedcpu, batched: decay every live process at once.

        Mirrors the strict scalar loop in
        :meth:`repro.kernel.kernel.Kernel._on_schedcpu` exactly:

        * running processes are charged first (scalar — there are at
          most ``ncpus`` of them);
        * sleepers/stopped processes age ``slptime``; those having
          slept more than one full pass are left to ``updatepri`` on
          wakeup;
        * everyone else gets one application of the decay filter and a
          priority recomputation, with wakeup boosts honored and
          run-queue requeues performed in table order.
        """
        self._charge_current()
        load = self.loadavg.value
        self.perf_schedcpu_passes += 1
        self.perf_batch_passes += 1
        procs = self.procs
        zombie = ProcState.ZOMBIE
        sleeping = ProcState.SLEEPING
        # Membership loop (state checks + sleeper aging — the only part
        # with side effects), then comprehension gathers over the
        # surviving targets: LIST_APPEND comprehensions beat bound
        # ``append`` calls, and this pass runs once per simulated second
        # over every live process.
        targets: list[Process] = []
        append = targets.append
        for proc in procs.values():
            if proc.state is zombie:
                continue
            if proc.state is sleeping or proc.stopped:
                proc.slptime += 1
                if proc.slptime > 1:
                    continue  # updatepri handles long sleepers on wakeup
            append(proc)
        if targets:
            estcpu = self._estcpu
            est = np.array([estcpu[p.slot] for p in targets], dtype=np.float64)
            nice = np.array([p.nice for p in targets], dtype=np.int64)
            new_est = batched_decay(est, nice, load, self._estcpu_limit)
            new_pri = batched_user_priority(self.cfg, new_est, nice)
            boost = np.array(
                [
                    NO_VALUE if p.boost_priority is None else p.boost_priority
                    for p in targets
                ],
                dtype=np.int64,
            )
            has_boost = boost != NO_VALUE
            if has_boost.any():
                new_pri = np.where(
                    has_boost, np.minimum(new_pri, boost), new_pri
                )
            changed = new_est != est
            if changed.any():
                old_pri = np.array(
                    [p.priority for p in targets], dtype=np.int64
                )
                pri_changed = (changed & (new_pri != old_pri)).tolist()
                on_runq = self._on_runq
                runq = self.runq
                new_est_items = new_est.tolist()
                new_pri_items = new_pri.tolist()
                for i in np.nonzero(changed)[0].tolist():
                    proc = targets[i]
                    estcpu[proc.slot] = new_est_items[i]
                    if pri_changed[i]:
                        if proc.pid in on_runq:
                            runq.remove(proc)
                            proc.priority = new_pri_items[i]
                            runq.insert(proc)
                        else:
                            proc.priority = new_pri_items[i]
        self._request_resched()
        self.engine.after(
            self.cfg.schedcpu_us,
            self._on_schedcpu,
            priority=_EVPRI_HOUSEKEEPING,
            tag="schedcpu",
        )
