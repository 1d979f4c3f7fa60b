"""Resident-array kernel backend: arrays as the authoritative state.

:class:`ResidentKernel` is the ``backend="resident"`` implementation
selected through :func:`repro.kernel.make_kernel`.  It inverts the
batch backend's state ownership: where :class:`~repro.kernel.batch.
BatchKernel` gathers PCB fields into struct-of-arrays form for each
vectorized pass and scatters results back, the resident backend keeps
the arrays (:class:`ResidentStore`) as the *single source of truth*
for per-process scheduler state.  :class:`ResidentProcess` PCBs are
thin views — properties reading and writing their row — so:

* the per-``schedcpu`` gather/scatter round trip (~0.5 µs/row, the
  floor the batch backend hit at paper scale) disappears entirely:
  the decay pass masks, decays, and writes back *in place*;
* run-queue membership is mirrored into a boolean column
  (:class:`_RunqMembership`) as it changes, so the decay pass needs no
  membership set lookups at all.

The columns are dual-natured, and that is the load-bearing trick.
Scalar kernel paths (dispatch, charging, sleep/wakeup) touch one
process at a time, and indexing a *numpy* array scalar-wise costs
~200 ns — 5× a ``__slots__`` read, enough to hand back everything the
in-place decay pass wins.  So each column is a :class:`array.array`
buffer: Python-level indexing returns native scalars in ~50 ns, while
the batch passes wrap the same memory in zero-copy numpy views
(:meth:`ResidentStore.np_view` via ``np.frombuffer``) — mutations on
either side are immediately visible on the other, because there is
only one buffer.

Everything else — dispatch, sleep/wakeup, signals, the event loop —
is the inherited scalar machinery running *through* the view
properties, which is exactly what pins byte-identity: every scalar
path performs the same IEEE-754 float64 operations on the same values
in the same order, merely loading and storing them in shared buffers
instead of ``__slots__``.  The backend matrix
(tests/perf/test_backend_matrix.py) holds resident to the same
byte-identical contract as optimized and batch, bare and stacked,
with no golden refresh; view/array coherence itself is pinned by
Hypothesis in tests/kernel/test_resident_view.py.

Like the batch backend, resident runs **eager** (strict-equivalent)
bookkeeping and fused same-instant event stepping.  ``array.array``
reads return plain Python ``int``/``float`` and the vectorized passes
convert results with ``.tolist()``, so numpy scalar types never leak
into traces, cycle logs, or arithmetic.

See docs/performance.md ("The resident backend") for measurements and
the compiled-dispatch story (:mod:`repro.sim.fastloop`).
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from repro.kernel.batch import (
    _CODE_TO_STATE,
    STATE_CODES,
    ArrayRunQueue,
    BatchKernel,
)
from repro.errors import KernelError, SimulationError
from repro.kernel.actions import Action, Compute, Exit, Sleep, SleepOn
from repro.kernel.kconfig import DEFAULT_CONFIG, KernelConfig
from repro.kernel.kernel import (
    _EVPRI_BURST,
    _EVPRI_HOUSEKEEPING,
    _EVPRI_START,
    _MAX_IMMEDIATE_ACTIONS,
)
from repro.kernel.priorities import (
    batched_decay,
    batched_user_priority,
    wakeup_decay,
)
from repro.kernel.runqueue import NQS, PPQ
from repro.kernel.process import NO_VALUE, Process, ProcState
from repro.sim.engine import Engine

_ZOMBIE_CODE = STATE_CODES[ProcState.ZOMBIE]
_RUNNING_CODE = STATE_CODES[ProcState.RUNNING]
_SLEEPING_CODE = STATE_CODES[ProcState.SLEEPING]

_INITIAL_CAPACITY = 128

#: Column name -> (array.array typecode, numpy view dtype).  ``q`` is
#: a signed 64-bit int and ``d`` an IEEE-754 float64 — the exact
#: dtypes the batch backend's SoA passes use, so the vectorized
#: arithmetic is bit-identical.  Boolean columns are one byte and
#: viewed as ``np.bool_`` (0/1 values only, written via int 0/1).
_COLUMNS: dict[str, tuple[str, type]] = {
    "pids": ("q", np.int64),
    "estcpu": ("d", np.float64),
    "priority": ("q", np.int64),
    "nice": ("q", np.int64),
    "slptime": ("q", np.int64),
    "cpu_time": ("q", np.int64),
    "run_start": ("q", np.int64),
    "pending_burst": ("q", np.int64),
    "state": ("q", np.int64),
    "stopped": ("b", np.bool_),
    "has_channel": ("b", np.bool_),
    "boost": ("q", np.int64),
    "on_runq": ("b", np.bool_),
}

#: The columns the base :class:`~repro.kernel.kernel.Kernel` owns
#: (``_estcpu`` / ``_nice`` / ``_priority`` / ``_boost``).  A store
#: under a kernel holds those very buffers, so they follow the kernel's
#: growth rule — one ``append`` per allocated row, in place — instead
#: of capacity doubling.
_KERNEL_COLUMNS = ("estcpu", "nice", "priority", "boost")


class ResidentStore:
    """Authoritative struct-of-arrays process table.

    One row per process, allocated at spawn in pid order and never
    freed (zombies keep their row, exactly as they keep their PCB in
    ``Kernel.procs``) — so row order *is* table order, which is what
    lets the decay pass requeue in ascending row index and match the
    scalar loop's dict-order requeues.

    Columns are ``array.array`` buffers (see the module docstring for
    why) mirroring the scheduler-owned fields of :class:`Process`;
    ``wait_channel`` (a string or None) lives in a plain list with a
    ``has_channel`` mirror so blocked-detection stays vectorizable.
    Buffers grow by doubling, which *replaces* them — numpy views from
    :meth:`np_view` must therefore be taken fresh per pass, never
    cached across an allocation.  The :data:`_KERNEL_COLUMNS` grow in
    place instead, and Python refuses that while a view of them is
    alive.

    The kernel columns and ``views`` default to fresh buffers;
    :class:`ResidentKernel` passes the base kernel's, so there is one
    column per field and one slot table, not two.
    """

    __slots__ = ("capacity", "n", "wait_channel", "slot_of", "views") + tuple(
        _COLUMNS
    )

    def __init__(
        self,
        capacity: int = _INITIAL_CAPACITY,
        *,
        estcpu: Optional[array] = None,
        nice: Optional[array] = None,
        priority: Optional[array] = None,
        boost: Optional[array] = None,
        views: Optional[list] = None,
    ) -> None:
        self.capacity = capacity
        self.n = 0
        for name, (typecode, _) in _COLUMNS.items():
            if name not in _KERNEL_COLUMNS:
                setattr(self, name, array(typecode, [0]) * capacity)
        self.estcpu = array("d") if estcpu is None else estcpu
        self.nice = array("q") if nice is None else nice
        self.priority = array("q") if priority is None else priority
        self.boost = array("q") if boost is None else boost
        #: Wait-channel strings (row-indexed; None unless sleeping).
        self.wait_channel: list[Optional[str]] = []
        #: pid -> row index.
        self.slot_of: dict[int, int] = {}
        #: Row-indexed view PCBs (the requeue loop needs the objects).
        self.views: list["ResidentProcess"] = [] if views is None else views

    def __len__(self) -> int:
        return self.n

    def np_view(self, name: str) -> np.ndarray:
        """Zero-copy numpy view of a column's first ``n`` rows.

        Writable and shared: mutations through the view are visible to
        scalar ``array.array`` reads instantly and vice versa.  Views
        go stale when the store grows — take them fresh per pass.
        """
        return np.frombuffer(
            getattr(self, name), dtype=_COLUMNS[name][1], count=self.n
        )

    def alloc(self, pid: int) -> int:
        """Allocate the next row for ``pid`` and return its index."""
        row = self.n
        if row == self.capacity:
            self._grow()
        self.n = row + 1
        self.pids[row] = pid
        self.estcpu.append(0.0)
        self.nice.append(0)
        self.priority.append(0)
        self.boost.append(NO_VALUE)
        self.wait_channel.append(None)
        self.slot_of[pid] = row
        return row

    def _grow(self) -> None:
        new_cap = self.capacity * 2
        for name, (typecode, _) in _COLUMNS.items():
            if name in _KERNEL_COLUMNS:
                continue
            old = getattr(self, name)
            new = array(typecode, [0]) * new_cap
            new[: self.n] = old[: self.n]
            setattr(self, name, new)
        self.capacity = new_cap


class ResidentProcess(Process):
    """A PCB whose scheduler state lives in a :class:`ResidentStore` row.

    The scheduler-owned fields are class-level properties shadowing the
    parent dataclass's slot descriptors: every read and write — whether
    from kernel code, behaviors, or tests — goes straight to the array
    row.  There is no shadow copy to go stale; interleaved view writes
    and direct array mutations observe each other exactly (pinned by
    Hypothesis in tests/kernel/test_resident_view.py).

    ``array.array`` indexing returns native Python scalars, so no
    conversion happens on read (booleans excepted) and numpy types
    never escape into traces or downstream arithmetic.  Structure
    fields (behavior, event handles, tags, cpu_index, …) stay ordinary
    slots from the parent class.
    """

    __slots__ = ("_store", "_qbucket", "_qpos")

    @classmethod
    def attach(
        cls,
        store: ResidentStore,
        *,
        pid: int,
        name: str,
        uid: int,
        nice: int,
        behavior,
    ) -> "ResidentProcess":
        """Allocate a row for ``pid`` and construct its view PCB.

        Deliberately bypasses the dataclass ``__init__``: the freshly
        allocated row already holds every array-backed default (zeroed
        columns; ``STATE_CODES[RUNNABLE] == 0``; wait channel None), so
        routing eleven default assignments through the property setters
        per spawn would be pure overhead — only the four kernel-owned
        columns, which grow by one element per row, are written.
        The plain structure slots are set directly, mirroring the
        parent's field defaults (tests/kernel/test_resident_view.py
        pins a fresh view against a fresh plain Process field by
        field).
        """
        # Inlined store.alloc(pid) — spawn-storm hot path.
        row = store.n
        if row == store.capacity:
            store._grow()
        store.n = row + 1
        store.pids[row] = pid
        store.estcpu.append(0.0)
        store.nice.append(nice)
        store.priority.append(0)
        store.boost.append(NO_VALUE)
        store.wait_channel.append(None)
        store.slot_of[pid] = row
        self = object.__new__(cls)
        self._store = store
        self.slot = row
        self.estcpu_column = store.estcpu
        self.priority_column = store.priority
        self.boost_column = store.boost
        store.views.append(self)
        # Plain (non-array) slots, matching Process field defaults.
        self.pid = pid
        self.name = name
        self.uid = uid
        self.behavior = behavior
        self.ready_while_stopped = False
        self.park_epoch = None
        self.vruntime = 0.0
        self.cpu_index = None
        self.preemptions = 0
        self.voluntary_switches = 0
        self.sleep_handle = None
        self.burst_handle = None
        self.tag_burst = ""
        self.tag_wake = ""
        self.exit_status = 0
        return self

    # -- scheduler state (array-backed) ---------------------------------
    # ``estcpu``, ``priority`` and ``boost_priority`` are inherited: the
    # parent's properties read row ``slot`` of their ``*_column``, which
    # attach binds to the store's columns.
    @property
    def nice(self) -> int:
        return self._store.nice[self.slot]

    @nice.setter
    def nice(self, value: int) -> None:
        self._store.nice[self.slot] = value

    @property
    def slptime(self) -> int:
        return self._store.slptime[self.slot]

    @slptime.setter
    def slptime(self, value: int) -> None:
        self._store.slptime[self.slot] = value

    @property
    def cpu_time(self) -> int:
        return self._store.cpu_time[self.slot]

    @cpu_time.setter
    def cpu_time(self, value: int) -> None:
        self._store.cpu_time[self.slot] = value

    @property
    def run_start(self) -> int:
        return self._store.run_start[self.slot]

    @run_start.setter
    def run_start(self, value: int) -> None:
        self._store.run_start[self.slot] = value

    @property
    def pending_burst_us(self) -> int:
        return self._store.pending_burst[self.slot]

    @pending_burst_us.setter
    def pending_burst_us(self, value: int) -> None:
        self._store.pending_burst[self.slot] = value

    @property
    def state(self) -> ProcState:
        return _CODE_TO_STATE[self._store.state[self.slot]]

    @state.setter
    def state(self, value: ProcState) -> None:
        self._store.state[self.slot] = STATE_CODES[value]

    @property
    def stopped(self) -> bool:
        return self._store.stopped[self.slot] != 0

    @stopped.setter
    def stopped(self, value: bool) -> None:
        self._store.stopped[self.slot] = 1 if value else 0

    @property
    def wait_channel(self) -> Optional[str]:
        return self._store.wait_channel[self.slot]

    @wait_channel.setter
    def wait_channel(self, value: Optional[str]) -> None:
        store = self._store
        row = self.slot
        store.wait_channel[row] = value
        store.has_channel[row] = 0 if value is None else 1


class ResidentRunQueue(ArrayRunQueue):
    """Bucketed run queue with O(1) removal via recorded positions.

    :class:`~repro.kernel.batch.ArrayRunQueue` removes by scanning the
    bucket for the process — O(bucket).  At paper scale that scan is
    the decay pass's dominant cost: a requeue inside a 3 000-process
    bucket walks ~3 000 identity checks.  Here every insert records the
    process's bucket and index on the view PCB (``_qbucket``/``_qpos``
    — positions are stable because buckets only append at the tail and
    consume from the head), so removal tombstones the slot in place.
    Pops and head peeks skip tombstones; per-bucket live counts decide
    when a bucket is really empty.

    FIFO order within a bucket — the round-robin contract the
    byte-identity battery pins — is unchanged: a tombstone is just a
    skipped slot, and remove-plus-reinsert lands at the tail exactly as
    the scanning queue's ``del`` + append does.
    """

    __slots__ = ("_live",)

    def __init__(self) -> None:
        super().__init__()
        self._live = [0] * NQS

    def insert(self, proc: Process) -> None:
        priority = proc.priority
        if priority < 0 or priority >= NQS * PPQ:
            raise KernelError(
                f"priority {priority} out of range 0..{NQS * PPQ - 1}"
            )
        qi = priority >> 2
        bucket = self._buckets[qi]
        proc._qbucket = qi
        proc._qpos = len(bucket)
        bucket.append(proc)
        self._nonempty |= 1 << qi
        self._count += 1
        self._live[qi] += 1

    def insert_head(self, proc: Process) -> None:
        qi = self._qindex(proc.priority)
        bucket = self._buckets[qi]
        head = self._heads[qi]
        if head > 0:
            head -= 1
            self._heads[qi] = head
            bucket[head] = proc
            proc._qpos = head
        else:
            bucket.insert(0, proc)
            proc._qpos = 0
            for other in bucket[1:]:
                if other is not None:
                    other._qpos += 1
        proc._qbucket = qi
        self._nonempty |= 1 << qi
        self._count += 1
        self._live[qi] += 1

    def remove(self, proc: Process) -> None:
        qi = proc._qbucket
        bucket = self._buckets[qi]
        pos = proc._qpos
        if pos >= len(bucket) or bucket[pos] is not proc:
            raise KernelError(f"pid {proc.pid} not on any run queue")
        bucket[pos] = None  # type: ignore[call-overload]  # tombstone
        self._count -= 1
        live = self._live[qi] - 1
        self._live[qi] = live
        if live == 0:
            bucket.clear()
            self._heads[qi] = 0
            self._nonempty &= ~(1 << qi)

    def best_priority(self) -> Optional[int]:
        bits = self._nonempty
        if not bits:
            return None
        qi = (bits & -bits).bit_length() - 1
        bucket = self._buckets[qi]
        head = self._heads[qi]
        proc = bucket[head]
        while proc is None:
            head += 1
            proc = bucket[head]
        self._heads[qi] = head
        return proc.priority

    def pop_best(self) -> Optional[Process]:
        bits = self._nonempty
        if not bits:
            return None
        qi = (bits & -bits).bit_length() - 1
        bucket = self._buckets[qi]
        head = self._heads[qi]
        proc = bucket[head]
        while proc is None:
            head += 1
            proc = bucket[head]
        bucket[head] = None  # type: ignore[call-overload]  # drop the reference
        self._heads[qi] = head + 1
        self._count -= 1
        live = self._live[qi] - 1
        self._live[qi] = live
        if live == 0:
            bucket.clear()
            self._heads[qi] = 0
            self._nonempty &= ~(1 << qi)
        return proc


class _RunqMembership(set):
    """The kernel's ``_on_runq`` pid set, mirrored into an array column.

    Only :meth:`add` and :meth:`discard` mutate run-queue membership
    anywhere in the kernel (kernel.py and cfs.py), so mirroring those
    two keeps ``store.on_runq`` exact at every instant — the decay
    pass reads the column instead of probing the set per row.
    """

    def __init__(self, store: ResidentStore) -> None:
        super().__init__()
        self._store = store

    def add(self, pid: int) -> None:
        set.add(self, pid)
        store = self._store
        row = store.slot_of.get(pid)
        if row is not None:
            store.on_runq[row] = 1

    def discard(self, pid: int) -> None:
        set.discard(self, pid)
        store = self._store
        row = store.slot_of.get(pid)
        if row is not None:
            store.on_runq[row] = 0


class ResidentKernel(BatchKernel):
    """Array-resident struct-of-arrays kernel (``backend="resident"``)."""

    def __init__(
        self,
        engine: Engine,
        config: KernelConfig = DEFAULT_CONFIG,
    ) -> None:
        super().__init__(engine, config)
        self.store = ResidentStore(
            estcpu=self._estcpu,
            nice=self._nice,
            priority=self._priority,
            boost=self._boost,
            views=self._table,
        )
        self.runq = ResidentRunQueue()  # type: ignore[assignment]  # same surface
        # Replace the plain pid set installed by Kernel.__init__ with
        # the mirroring set (empty at this point; no process exists yet).
        self._on_runq = _RunqMembership(self.store)

    # ------------------------------------------------------------------
    # Row-direct scalar hot paths
    # ------------------------------------------------------------------
    # The methods below are operation-for-operation copies of the base
    # kernel's (see each original's docstring for semantics) with one
    # change: they fetch ``store``/``proc.slot`` once and index the
    # column buffers directly instead of going through the view
    # properties.  A property access costs a descriptor call plus two
    # attribute loads per field; on the spawn/start storm — the scalar-
    # dominated regime the resident gate cell measures — that tax is
    # most of the backend's overhead.  Byte-identity with the originals
    # is held by the backend matrix; keep any change here mirrored in
    # kernel.py (and vice versa).

    def spawn(
        self,
        name: str,
        behavior,
        *,
        uid: int = 0,
        nice: int = 0,
        start_delay: int = 0,
    ) -> Process:
        pid = self._next_pid
        self._next_pid += 1
        store = self.store
        proc = ResidentProcess.attach(
            store, pid=pid, name=name, uid=uid, nice=nice, behavior=behavior
        )
        row = proc.slot
        self._scheduled.append(1)
        # Inlined user_priority(cfg, 0.0, nice) over the hoisted scalars.
        pri = self._puser + 0.0 / self._estcpu_weight + self._nice_weight * nice
        if pri < 0:
            pri = 0
        elif pri > self._maxpri:
            pri = self._maxpri
        else:
            pri = int(pri)
        store.priority[row] = pri
        store.state[row] = _SLEEPING_CODE  # embryonic until started
        store.wait_channel[row] = "fork"
        store.has_channel[row] = 1
        proc.tag_burst = f"burst:{name}"
        proc.tag_wake = f"wake:{name}"
        self.procs[pid] = proc
        # _park(proc) elided: the batch family runs eager bookkeeping
        # (_lazy is False), so parking never records an epoch.
        # Inlined engine.after (validation included; the handle is not
        # retained, matching the base spawn).
        if start_delay < 0:
            raise SimulationError(f"negative delay: {start_delay}")
        self._equeue_schedule(
            self._clock._now + start_delay,
            self._on_start,
            _EVPRI_START,
            proc,
            f"start:{name}",
        )
        return proc

    def _on_start(self, event) -> None:
        proc: ResidentProcess = event.payload
        store = self.store
        row = proc.slot
        if store.state[row] == _ZOMBIE_CODE:
            return
        store.wait_channel[row] = None
        store.has_channel[row] = 0
        store.state[row] = 0  # STATE_CODES[RUNNABLE]
        # Inlined _advance_guarded(proc, False): the guarded trampoline
        # owns resched deferral, so the guard dance stays intact.
        self._dispatch_depth += 1
        try:
            self._advance(proc, False)
        finally:
            self._dispatch_depth -= 1
        if self._dispatch_depth == 0 and self._resched_pending:
            self._resched_pending = False
            self._resched_now()

    def _setrunnable(self, proc: Process) -> None:
        store = self.store
        row = proc.slot
        store.state[row] = 0  # STATE_CODES[RUNNABLE]
        if store.stopped[row]:
            return  # parked until SIGCONT
        # Inlined _unpark: eager bookkeeping never sets park_epoch, so
        # the slot check alone decides (and always fails).
        if proc.park_epoch is not None:
            self._materialize_slptime(proc)
            proc.park_epoch = None
            self._scheduled[row] = 1
        estcpu = store.estcpu[row]
        nice = store.nice[row]
        slptime = store.slptime[row]
        if slptime >= 1:
            estcpu = wakeup_decay(
                self.cfg, estcpu, nice, self.loadavg.value, slptime
            )
            store.estcpu[row] = estcpu
            store.slptime[row] = 0
        # Inlined user_priority (see kernel.py _charge_proc).
        pri = (
            self._puser
            + estcpu / self._estcpu_weight
            + self._nice_weight * nice
        )
        if pri < 0:
            pri = 0
        elif pri > self._maxpri:
            pri = self._maxpri
        else:
            pri = int(pri)
        boost = store.boost[row]
        if boost != NO_VALUE and boost < pri:
            pri = boost
        store.priority[row] = pri
        on_runq = self._on_runq
        pid = proc.pid
        if pid not in on_runq:
            # Inlined ArrayRunQueue.insert + _RunqMembership.add: ``pri``
            # is already clamped to [0, maxpri] so the queue's range
            # check cannot fire, and ``row`` is already in hand so the
            # membership mirror needs no slot_of lookup.
            runq = self.runq
            qi = pri >> 2
            bucket = runq._buckets[qi]
            proc._qbucket = qi
            proc._qpos = len(bucket)
            bucket.append(proc)
            runq._nonempty |= 1 << qi
            runq._count += 1
            runq._live[qi] += 1
            set.add(on_runq, pid)
            store.on_runq[row] = 1
        # Inlined _request_resched.
        if self._dispatch_depth > 0:
            self._resched_pending = True
        else:
            self._resched_now()

    def _advance(self, proc: Process, on_cpu: bool) -> None:
        store = self.store
        row = proc.slot
        state = store.state
        kapi = self.kapi
        for _ in range(_MAX_IMMEDIATE_ACTIONS):
            action: Action = proc.behavior.next_action(proc, kapi)
            if state[row] == _ZOMBIE_CODE:
                return  # behavior side effect killed the process
            if isinstance(action, Compute):
                if action.duration_us == 0:
                    continue
                store.pending_burst[row] = action.duration_us
                if on_cpu:
                    self._schedule_burst(proc, restart=True)
                else:
                    self._setrunnable(proc)
                return
            if isinstance(action, (Sleep, SleepOn)):
                timeout = action.duration_us if isinstance(action, Sleep) else None
                self._sleep(proc, action.channel, timeout, on_cpu)
                return
            if isinstance(action, Exit):
                self._do_exit(proc, status=action.status)
                return
            raise KernelError(f"behavior returned unknown action {action!r}")
        raise KernelError(
            f"pid {proc.pid} issued {_MAX_IMMEDIATE_ACTIONS} zero-length "
            "actions in a row; behavior is likely stuck"
        )

    def _resched_now(self) -> None:
        cpus = self.cpus
        if len(cpus) == 1:
            # Uniprocessor fast path with best_priority() inlined so the
            # queue head's priority comes from the column buffer instead
            # of a view property read.
            proc = cpus[0]
            if proc is None:
                self._dispatch()
                return
            runq = self.runq
            bits = runq._nonempty
            if not bits:
                return
            qi = (bits & -bits).bit_length() - 1
            bucket = runq._buckets[qi]
            hd = runq._heads[qi]
            head = bucket[hd]
            while head is None:
                hd += 1
                head = bucket[hd]
            runq._heads[qi] = hd
            store = self.store
            best = store.priority[head.slot]
            # Inlined _inst_priority(proc).
            prow = proc.slot
            inflight = self._clock._now - store.run_start[prow]
            if inflight < 0:
                inflight = 0
            est = store.estcpu[prow] + inflight / self._tick_us
            limit = self._estcpu_limit
            if est > limit:
                est = limit
            pri = (
                self._puser
                + est / self._estcpu_weight
                + self._nice_weight * store.nice[prow]
            )
            if pri < 0:
                pri = 0
            elif pri > self._maxpri:
                pri = self._maxpri
            else:
                pri = int(pri)
            if best < pri:
                self._preempt_cpu(0)
                self._dispatch()
            return
        super()._resched_now()

    def _inst_priority(self, proc: Process) -> int:
        store = self.store
        row = proc.slot
        inflight = self._clock._now - store.run_start[row]
        if inflight < 0:
            inflight = 0
        est = store.estcpu[row] + inflight / self._tick_us
        limit = self._estcpu_limit
        if est > limit:
            est = limit
        pri = (
            self._puser
            + est / self._estcpu_weight
            + self._nice_weight * store.nice[row]
        )
        if pri < 0:
            return 0
        if pri > self._maxpri:
            return self._maxpri
        return int(pri)

    def _charge_proc(self, proc: Process) -> None:
        store = self.store
        row = proc.slot
        now = self._clock._now
        consumed = now - store.run_start[row]
        if consumed <= 0:
            return
        store.cpu_time[row] += consumed
        pending = store.pending_burst[row] - consumed
        store.pending_burst[row] = pending if pending > 0 else 0
        est = store.estcpu[row] + consumed / self._tick_us
        limit = self._estcpu_limit
        if est > limit:
            est = limit
        store.estcpu[row] = est
        pri = (
            self._puser
            + est / self._estcpu_weight
            + self._nice_weight * store.nice[row]
        )
        if pri < 0:
            store.priority[row] = 0
        elif pri > self._maxpri:
            store.priority[row] = self._maxpri
        else:
            store.priority[row] = int(pri)
        store.run_start[row] = now
        self.total_busy_us += consumed

    def _on_burst_complete(self, event) -> None:
        proc: ResidentProcess = event.payload
        store = self.store
        row = proc.slot
        ci = proc.cpu_index
        if (
            store.state[row] != _RUNNING_CODE
            or ci is None
            or self.cpus[ci] is not proc
        ):
            return  # stale event (should have been cancelled)
        proc.burst_handle = None
        self._charge_proc(proc)
        # Inlined _advance_guarded(proc, True).
        self._dispatch_depth += 1
        try:
            self._advance(proc, True)
        finally:
            self._dispatch_depth -= 1
        if self._dispatch_depth == 0 and self._resched_pending:
            self._resched_pending = False
            self._resched_now()

    def _dispatch(self) -> None:
        cpus = self.cpus
        if len(cpus) == 1 and cpus[0] is not None:
            return  # uniprocessor, busy: nothing to fill
        store = self.store
        on_runq = self._on_runq
        for i, occupant in enumerate(cpus):
            if occupant is not None:
                continue
            proc = self.runq.pop_best()
            if proc is None:
                return
            row = proc.slot
            pid = proc.pid
            set.discard(on_runq, pid)
            store.on_runq[row] = 0
            boost = store.boost[row]
            if boost != NO_VALUE:
                # Wakeup boost consumed at dispatch (inlined
                # user_priority, see kernel.py _charge_proc).
                store.boost[row] = NO_VALUE
                pri = (
                    self._puser
                    + store.estcpu[row] / self._estcpu_weight
                    + self._nice_weight * store.nice[row]
                )
                if pri < 0:
                    store.priority[row] = 0
                elif pri > self._maxpri:
                    store.priority[row] = self._maxpri
                else:
                    store.priority[row] = int(pri)
            store.state[row] = _RUNNING_CODE
            proc.cpu_index = i
            cpus[i] = proc
            self._oncpu += 1
            self.context_switches += 1
            obs = self._obs
            if obs is not None and obs.enabled:
                obs.events.emit(self._clock._now, "kernel.ctxsw", pid=pid, cpu=i)
            now = self._clock._now
            run_start = now + self._ctx_switch_us
            store.run_start[row] = run_start
            # Inlined _schedule_burst(proc, restart=False).
            done_at = run_start + store.pending_burst[row]
            if done_at < now:
                done_at = now
            proc.burst_handle = self._equeue_schedule(
                done_at, self._on_burst_complete, _EVPRI_BURST, proc, proc.tag_burst
            )

    def _preempt_cpu(self, index: int) -> None:
        proc = self.cpus[index]
        if proc is None:
            return
        if proc.burst_handle is not None:
            proc.burst_handle.cancel()
            proc.burst_handle = None
        self._charge_proc(proc)
        store = self.store
        row = proc.slot
        store.state[row] = 0  # STATE_CODES[RUNNABLE]
        proc.preemptions += 1
        proc.cpu_index = None
        self.cpus[index] = None
        self._oncpu -= 1
        if not store.stopped[row]:
            # Inlined runq.insert + membership add (priority is stored
            # clamped, so the queue's range check cannot fire).
            pri = store.priority[row]
            runq = self.runq
            qi = pri >> 2
            bucket = runq._buckets[qi]
            proc._qbucket = qi
            proc._qpos = len(bucket)
            bucket.append(proc)
            runq._nonempty |= 1 << qi
            runq._count += 1
            runq._live[qi] += 1
            set.add(self._on_runq, proc.pid)
            store.on_runq[row] = 1

    def _on_schedclock(self, event) -> None:
        now = self._clock._now
        store = self.store
        runq = self.runq
        run_start = store.run_start
        priority = store.priority
        for i, proc in enumerate(self.cpus):
            if proc is None or now <= run_start[proc.slot]:
                continue
            self._charge_proc(proc)
            bits = runq._nonempty
            if bits:
                qi = (bits & -bits).bit_length() - 1
                bucket = runq._buckets[qi]
                hd = runq._heads[qi]
                head = bucket[hd]
                while head is None:
                    hd += 1
                    head = bucket[hd]
                runq._heads[qi] = hd
                if priority[head.slot] < priority[proc.slot]:
                    self._preempt_cpu(i)
                    self._dispatch()
        self.engine.after(
            self.cfg.schedclock_us,
            self._on_schedclock,
            priority=_EVPRI_HOUSEKEEPING,
            tag="schedclock",
        )

    def _on_roundrobin(self, event) -> None:
        now = self._clock._now
        store = self.store
        runq = self.runq
        run_start = store.run_start
        priority = store.priority
        for i, proc in enumerate(self.cpus):
            if proc is None or not runq._count or now <= run_start[proc.slot]:
                continue
            self._charge_proc(proc)
            bits = runq._nonempty
            if bits:
                # The best bucket index *is* best_priority >> 2, which
                # is all the BSD bucket comparison needs.
                qi = (bits & -bits).bit_length() - 1
                if qi <= priority[proc.slot] >> 2:
                    self._preempt_cpu(i)
                    self._dispatch()
        self.engine.after(
            self.cfg.slice_us,
            self._on_roundrobin,
            priority=_EVPRI_HOUSEKEEPING,
            tag="roundrobin",
        )

    # ------------------------------------------------------------------
    # In-place vectorized per-second decay (no gather, no scatter)
    # ------------------------------------------------------------------
    def _on_schedcpu(self, event) -> None:
        """Eager schedcpu over the resident arrays, fully in place.

        Same semantics as the strict scalar loop and the batch gather
        pass (:meth:`BatchKernel._on_schedcpu`), but the arrays *are*
        the state: sleeper aging is one masked increment, decay and
        priority recompute run over column views, and write-back is a
        masked ``np.copyto`` — zero per-row Python work except the
        (rare) run-queue requeues, performed in ascending row order,
        which is table order, matching every other backend.
        """
        self._charge_current()
        load = self.loadavg.value
        self.perf_schedcpu_passes += 1
        self.perf_batch_passes += 1
        store = self.store
        if store.n:
            state = store.np_view("state")
            est = store.np_view("estcpu")
            nice = store.np_view("nice")
            slpt = store.np_view("slptime")
            live = state != _ZOMBIE_CODE
            parked = live & (
                (state == _SLEEPING_CODE) | store.np_view("stopped")
            )
            if parked.any():
                slpt[parked] += 1
            # Aged sleepers having slept more than one full pass are
            # left to updatepri on wakeup, exactly like the eager loop.
            targets = live & (~parked | (slpt <= 1))
            if targets.any():
                new_est = batched_decay(est, nice, load, self._estcpu_limit)
                new_pri = batched_user_priority(self.cfg, new_est, nice)
                boost = store.np_view("boost")
                has_boost = boost != NO_VALUE
                if has_boost.any():
                    new_pri = np.where(
                        has_boost, np.minimum(new_pri, boost), new_pri
                    )
                changed = targets & (new_est != est)
                if changed.any():
                    pri = store.np_view("priority")
                    pri_changed = changed & (new_pri != pri)
                    np.copyto(est, new_est, where=changed)
                    on_runq = store.np_view("on_runq")
                    requeue = pri_changed & on_runq
                    # Off-queue rows take the new priority directly …
                    np.copyto(pri, new_pri, where=pri_changed & ~on_runq)
                    # … queued rows are requeued one by one (remove at
                    # the old priority, reinsert at the new) in table
                    # order, as the scalar and batch loops do.
                    if requeue.any():
                        runq = self.runq
                        views = store.views
                        new_pri_items = new_pri.tolist()
                        for i in np.nonzero(requeue)[0].tolist():
                            proc = views[i]
                            runq.remove(proc)
                            pri[i] = new_pri_items[i]
                            runq.insert(proc)
        self._request_resched()
        self.engine.after(
            self.cfg.schedcpu_us,
            self._on_schedcpu,
            priority=_EVPRI_HOUSEKEEPING,
            tag="schedcpu",
        )
