"""Column/PCB coherence for the kernel's process-table columns.

``estcpu``, ``priority`` and ``boost_priority`` each live in one
column owned by the base ``Kernel`` (the ``Process`` attributes are
properties over them), beside a ``nice`` mirror and a one-byte
"directly scheduled" mask; the lazy kernel's per-second decay is a
vector pass over the five.  These tests pin what that pass relies on,
on every backend: one home per field (the resident store shares the
columns instead of keeping its own), mirror and mask updated by
``renice`` / park / unpark / exit, slots dense and never reused, and
no numpy view of a column alive between passes — the columns grow in
place at ``spawn``, which Python refuses while a buffer is exported.
"""

from __future__ import annotations

import pytest

from repro.kernel import KERNEL_BACKENDS, KernelConfig, make_kernel
from repro.kernel.actions import Compute, Exit, Sleep
from repro.kernel.behaviors import GeneratorBehavior
from repro.kernel.process import NO_VALUE, Process, ProcState
from repro.kernel.signals import SIGCONT, SIGKILL, SIGSTOP
from repro.sim.engine import Engine
from repro.units import ms, sec
from repro.workloads.spinner import spinner_behavior

backends = pytest.mark.parametrize("backend", KERNEL_BACKENDS)


def _kernel(backend: str):
    engine = Engine(seed=0)
    return engine, make_kernel(engine, KernelConfig(backend=backend))


def _sleeper(sleep_us: int):
    def factory(proc, kapi):
        while True:
            yield Compute(ms(5))
            yield Sleep(sleep_us)

    return GeneratorBehavior(factory)


def _exiter(after_us: int):
    def factory(proc, kapi):
        yield Compute(after_us)
        yield Exit(0)

    return GeneratorBehavior(factory)


def test_estcpu_is_not_a_pcb_attribute():
    assert "estcpu" not in Process.__slots__
    assert isinstance(Process.estcpu, property)
    # A free-standing PCB reads and writes a private one-element column.
    proc = Process(pid=1, name="p", uid=0, nice=0, behavior=None)
    proc.estcpu = 2.5
    assert list(proc.estcpu_column) == [2.5]


@backends
def test_estcpu_get_and_set_go_through_the_kernel_column(backend):
    engine, kernel = _kernel(backend)
    procs = [kernel.spawn(f"s{i}", spinner_behavior()) for i in range(3)]
    assert [p.slot for p in procs] == [0, 1, 2]
    assert kernel._table == procs
    for proc in procs:
        assert proc.estcpu_column is kernel._estcpu
    procs[1].estcpu = 7.25
    assert list(kernel._estcpu) == [0.0, 7.25, 0.0]
    kernel._estcpu[2] = 1.5
    assert procs[2].estcpu == 1.5
    # The kernel's own writes (charging, decay) are what the PCB shows.
    engine.run_until(sec(3) + ms(300))
    assert [p.estcpu for p in procs] == list(kernel._estcpu)
    assert any(est > 0.0 for est in kernel._estcpu)


def test_priority_and_boost_are_not_pcb_attributes():
    assert not {"priority", "boost_priority"} & set(Process.__slots__)
    assert isinstance(Process.priority, property)
    assert isinstance(Process.boost_priority, property)
    # A free-standing PCB has a private one-element column for each.
    proc = Process(pid=1, name="p", uid=0, nice=0, behavior=None)
    other = Process(pid=2, name="q", uid=0, nice=0, behavior=None)
    assert (proc.priority, proc.boost_priority) == (0, None)
    proc.priority = 61
    proc.boost_priority = 30
    assert list(proc.priority_column) == [61]
    assert list(proc.boost_column) == [30]
    proc.boost_priority = None
    assert list(proc.boost_column) == [NO_VALUE]
    assert (other.priority, other.boost_priority) == (0, None)


@backends
def test_priority_and_boost_go_through_the_kernel_columns(backend):
    engine, kernel = _kernel(backend)
    procs = [kernel.spawn(f"s{i}", spinner_behavior(), nice=i) for i in range(3)]
    procs.append(kernel.spawn("nap", _sleeper(ms(300))))
    for proc in procs:
        assert proc.priority_column is kernel._priority
        assert proc.boost_column is kernel._boost
    puser, nice_weight = kernel.cfg.puser, kernel.cfg.nice_weight
    assert list(kernel._priority) == [puser + nice_weight * p.nice for p in procs]
    assert list(kernel._boost) == [NO_VALUE] * 4
    procs[1].priority = 77
    procs[2].boost_priority = 30
    assert kernel._priority[1] == 77 and kernel._boost[2] == 30
    kernel._priority[0] = 12
    kernel._boost[2] = NO_VALUE
    assert procs[0].priority == 12 and procs[2].boost_priority is None
    procs[1].priority = puser + nice_weight  # nothing is queued yet
    procs[0].priority = puser
    # The kernel's own writes (charging, decay, wakeup boost, dispatch)
    # are what the PCBs show, at every instant.
    boosts_seen = set()
    for step in range(1, 40):
        engine.run_until(step * ms(101))
        if step in (10, 20):  # woken while stopped: the boost stays pending
            kernel.kill(procs[3].pid, SIGSTOP if step == 10 else SIGCONT)
        assert [p.priority for p in procs] == list(kernel._priority)
        assert [
            NO_VALUE if p.boost_priority is None else p.boost_priority
            for p in procs
        ] == list(kernel._boost)
        for pid in kernel._on_runq:
            assert kernel.procs[pid] in kernel.runq
        boosts_seen.update(kernel._boost)
    assert len(set(kernel._priority)) > 1
    assert boosts_seen == {NO_VALUE, kernel.cfg.sleep_priority}


@backends
def test_renice_updates_the_nice_mirror(backend):
    engine, kernel = _kernel(backend)
    procs = [kernel.spawn(f"s{i}", spinner_behavior(), nice=i) for i in range(3)]
    assert list(kernel._nice) == [0, 1, 2]
    engine.run_until(ms(500))
    kernel.renice(procs[1].pid, -5)
    assert list(kernel._nice) == [0, -5, 2]
    assert [p.nice for p in procs] == [0, -5, 2]


@backends
def test_exit_clears_the_mask_and_the_slot_is_never_reused(backend):
    engine, kernel = _kernel(backend)
    procs = [kernel.spawn(f"s{i}", spinner_behavior()) for i in range(3)]
    engine.run_until(sec(2))
    dead = procs[1]
    est_at_exit = kernel.procs[dead.pid].estcpu
    kernel.kill(dead.pid, SIGKILL)
    assert kernel._scheduled[dead.slot] == 0
    late = kernel.spawn("late", spinner_behavior())
    assert late.slot == 3 and kernel._table[3] is late
    assert len(kernel._estcpu) == len(kernel._nice) == len(kernel._scheduled) == 4
    assert len(kernel._priority) == len(kernel._boost) == 4
    engine.run_until(sec(5))
    # The zombie keeps its row; no pass decays it any further.
    assert dead.estcpu == est_at_exit
    assert kernel._table[1] is dead and dead.state is ProcState.ZOMBIE


def test_mask_is_alive_and_not_parked_in_the_lazy_kernel():
    engine, kernel = _kernel("optimized")
    kernel.spawn("spin", spinner_behavior())
    kernel.spawn("nap", _sleeper(ms(700)))
    kernel.spawn("doze", _sleeper(sec(3)))
    kernel.spawn("gone", _exiter(ms(300)))
    halted = kernel.spawn("halted", spinner_behavior())
    seen = set()
    for step in range(1, 60):
        engine.run_until(step * ms(130))
        if step == 10:
            kernel.kill(halted.pid, SIGSTOP)
        if step == 40:
            kernel.kill(halted.pid, SIGCONT)
        for proc in kernel._table:
            scheduled = proc.park_epoch is None and proc.alive
            assert kernel._scheduled[proc.slot] == scheduled, (step, proc)
            parked = proc.state is ProcState.SLEEPING or proc.stopped
            assert scheduled == (proc.alive and not parked), (step, proc)
            seen.add((proc.name, scheduled))
    # Every process but the spinner was seen on both sides of the mask.
    assert {name for name, scheduled in seen if not scheduled} == {
        "nap", "doze", "gone", "halted",
    }


@backends
def test_spawn_right_after_a_pass_grows_the_columns(backend):
    """No numpy view of a column outlives ``schedcpu``: a live one makes
    the in-place growth below raise ``BufferError``."""
    engine, kernel = _kernel(backend)
    for i in range(4):
        kernel.spawn(f"s{i}", spinner_behavior())
    passes = 0
    for second in range(1, 4):
        engine.run_until(sec(second))  # the pass at this instant has run
        assert kernel.perf_schedcpu_passes > passes
        passes = kernel.perf_schedcpu_passes
        for j in range(200):  # well past any preallocated capacity
            kernel.spawn(f"late{second}.{j}", spinner_behavior())
    assert len(kernel._estcpu) == len(kernel._table) == len(kernel.procs) == 604
    assert len(kernel._priority) == len(kernel._boost) == 604
    engine.run_until(sec(5))
    assert [p.estcpu for p in kernel._table] == list(kernel._estcpu)
    assert [p.priority for p in kernel._table] == list(kernel._priority)


def test_resident_kernel_has_one_estcpu_column():
    engine, kernel = _kernel("resident")
    first = kernel.spawn("first", spinner_behavior())
    for i in range(300):  # past the store's initial capacity: it regrows
        kernel.spawn(f"s{i}", spinner_behavior(), nice=i % 5)
    store = kernel.store
    assert store.estcpu is kernel._estcpu is first.estcpu_column
    assert store.priority is kernel._priority is first.priority_column
    assert store.boost is kernel._boost is first.boost_column
    assert store.nice is kernel._nice
    assert store.views is kernel._table
    assert len(kernel._estcpu) == store.n == 301
    engine.run_until(sec(3))
    first.estcpu = 9.0
    assert store.estcpu[first.slot] == 9.0 == store.np_view("estcpu")[first.slot]
    assert list(store.np_view("nice")) == [p.nice for p in kernel._table]
    first.priority, first.boost_priority = 9, 30
    assert (store.priority[first.slot], store.boost[first.slot]) == (9, 30)
    assert list(store.np_view("priority")) == [p.priority for p in kernel._table]
