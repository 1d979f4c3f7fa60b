"""One ``schedcpu`` pass equals the readable spec (property tests).

The kernel has two implementations of the per-second decay: the eager
scalar loop (``strict``, the oracle) and the lazy kernel's in-place
vector pass over the ``estcpu`` / ``priority`` / boost columns.  For any
population — table sizes 1…500, any estcpu, nice, load (zero included),
stored priority, wakeup boost, and any mix of runnable / sleeping /
stopped / zombie processes:

* one pass of either must leave every PCB's ``(estcpu, priority,
  slptime)`` exactly where :func:`decay_estcpu` and
  :func:`user_priority` put it, and every run-queue bucket in the order
  table-order requeueing (remove, then append at the new bucket's tail)
  leaves it;
* two passes with a ``renice``, a SIGSTOP and a SIGCONT in between
  (the writes to the ``nice`` mirror and the scheduled mask) must leave
  the lazy kernel equal to the strict one field by field and bucket by
  bucket.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings, strategies as st

from repro.kernel.kconfig import KernelConfig
from repro.kernel.kernel import Kernel
from repro.kernel.priorities import decay_estcpu, user_priority
from repro.kernel.process import ProcState
from repro.kernel.signals import SIGCONT, SIGKILL, SIGSTOP
from repro.sim.engine import Engine

CFG = KernelConfig()
KINDS = ["runnable", "sleeping", "stopped", "zombie"]
BOOSTS = [None, CFG.sleep_priority]

#: estcpu values that sit on both clamps as well as inside the range.
estcpus = st.one_of(
    st.sampled_from([0.0, CFG.estcpu_limit]),
    st.floats(0.0, CFG.estcpu_limit, allow_nan=False),
)

#: Small tables drawn field by field, so failures shrink well.
drawn_tables = st.lists(
    st.fixed_dictionaries(
        {
            "estcpu": estcpus,
            "nice": st.integers(-20, 20),
            "priority": st.integers(0, CFG.maxpri),
            "boost": st.sampled_from(BOOSTS),
            "kind": st.sampled_from(KINDS),
            "slptime": st.integers(0, 3),
        }
    ),
    min_size=1,
    max_size=12,
)


def _seeded_table(seed: int, n: int) -> list[dict]:
    """A table of ``n`` rows from one seed: the large sizes, where a
    field-by-field draw would spend the whole budget generating."""
    rng = random.Random(seed)
    limit = CFG.estcpu_limit
    return [
        {
            "estcpu": rng.choice([0.0, limit, rng.uniform(0.0, limit)]),
            "nice": rng.randint(-20, 20),
            "priority": rng.randint(0, CFG.maxpri),
            "boost": rng.choice(BOOSTS),
            "kind": rng.choice(KINDS),
            "slptime": rng.randint(0, 3),
        }
        for _ in range(n)
    ]


tables = st.one_of(
    drawn_tables,
    st.builds(_seeded_table, st.integers(0, 2**32 - 1), st.integers(1, 500)),
)

loads = st.one_of(st.just(0.0), st.floats(0.0, 4000.0, allow_nan=False))


def _row(estcpu, priority, boost=None, kind="runnable", nice=0, slptime=0):
    return {
        "estcpu": estcpu, "nice": nice, "priority": priority,
        "boost": boost, "kind": kind, "slptime": slptime,
    }


#: Pinned inputs for a pass that filters rows before visiting them.  At
#: load 1.0 an estcpu of 48.0 decays to 32.0, user priority 58 (bucket
#: 14 holds 56…59); 0.0 stays 0.0.
TRAP_LOAD = 1.0
BOOST = CFG.sleep_priority
TRAPS = {
    # New user priority == stored priority, but a smaller boost is
    # pending (``renice`` used to leave rows like this): still moves.
    "boost_below_unchanged_user_priority": [_row(48.0, 58, BOOST)],
    # Stored priority above, at and below a pending boost.
    "stored_priority_vs_boost": [
        _row(48.0, 100, BOOST), _row(48.0, BOOST, BOOST), _row(48.0, 7, BOOST),
    ],
    # 57 -> 58 stays in bucket 14 yet goes behind the untouched rows.
    "requeue_inside_one_bucket": [_row(48.0, 57), _row(0.0, 58), _row(0.0, 59)],
    # Parked rows whose stored priority is not what their estcpu gives.
    "parked_rows": [
        _row(48.0, 99, BOOST, "sleeping"), _row(48.0, 99, BOOST, "stopped"),
        _row(48.0, 99, None, "sleeping", slptime=2), _row(48.0, 99, kind="zombie"),
    ],
}
TRAPS["all"] = [row for table in TRAPS.values() for row in table]


def _build(strict: bool, table: list[dict], load: float) -> Kernel:
    """A kernel holding ``table``, every row put in its state through
    the kernel's own transitions so park epochs, the scheduled mask and
    the ``nice`` mirror are what a run would have left."""
    kernel = Kernel(Engine(seed=0), KernelConfig(strict=strict))
    kernel.loadavg._value = load
    # Defer every reschedule (as inside an event handler) so the
    # dispatcher does not consume a boost before the state is compared.
    kernel._dispatch_depth = 1
    for spec in table:
        proc = kernel.spawn("p", None, nice=spec["nice"])  # asleep on "fork"
        proc.estcpu = spec["estcpu"]
        kind = spec["kind"]
        if kind == "zombie":
            kernel.kill(proc.pid, SIGKILL)
        elif kind == "sleeping":
            proc.slptime = spec["slptime"]
        else:
            proc.wait_channel = None
            kernel._setrunnable(proc)
            if kind == "stopped":
                kernel.kill(proc.pid, SIGSTOP)
                proc.slptime = spec["slptime"]
        # Any stored priority/boost is legal input to the pass; a queued
        # process is requeued so its bucket matches the forced priority.
        proc.boost_priority = spec["boost"]
        if proc.pid in kernel._on_runq:
            kernel.runq.remove(proc)
            proc.priority = spec["priority"]
            kernel.runq.insert(proc)
        else:
            proc.priority = spec["priority"]
    return kernel


def _spec(cfg, strict, load, proc):
    """What the pass must leave in ``(estcpu, priority, slptime)``."""
    est, pri, slp = proc.estcpu, proc.priority, proc.slptime
    if proc.state is ProcState.ZOMBIE:
        return est, pri, slp
    if proc.state is ProcState.SLEEPING or proc.stopped:
        if not strict:
            return est, pri, slp  # lazy: deferred to wakeup
        slp += 1
        if slp > 1:
            return est, pri, slp
    new_est = decay_estcpu(cfg, est, proc.nice, load)
    if new_est != est:
        est = new_est
        pri = user_priority(cfg, est, proc.nice)
        if proc.boost_priority is not None:
            pri = min(pri, proc.boost_priority)
    return est, pri, slp


def _assert_runq_consistent(kernel: Kernel) -> None:
    assert len(kernel.runq) == len(kernel._on_runq)
    for pid in kernel._on_runq:
        proc = kernel.procs[pid]
        assert proc in kernel.runq._queues[proc.priority >> 2]


def _fields(kernel: Kernel) -> list[tuple]:
    return [
        (
            p.pid, p.estcpu, p.priority, p.nice, p.slptime,
            p.state, p.stopped, p.boost_priority,
        )
        for p in kernel.procs.values()
    ]


def _buckets(kernel: Kernel) -> list[list[int]]:
    return [[p.pid for p in queue] for queue in kernel.runq._queues]


def _one_pass_traps(test):
    for table in TRAPS.values():
        for strict in (True, False):
            test = example(table=table, load=TRAP_LOAD, strict=strict)(test)
    return test


@_one_pass_traps
@given(table=tables, load=loads, strict=st.booleans())
@settings(max_examples=300, deadline=None)
def test_one_pass_matches_decay_estcpu_and_user_priority(table, load, strict):
    kernel = _build(strict, table, load)
    expected = {
        pid: _spec(kernel.cfg, strict, load, proc)
        for pid, proc in kernel.procs.items()
    }
    # Queued rows whose priority moves leave their bucket and join the
    # tail of the new one (even if it is the same one), in table order.
    buckets = _buckets(kernel)
    for pid, proc in kernel.procs.items():
        new_pri = expected[pid][1]
        if pid in kernel._on_runq and new_pri != proc.priority:
            buckets[proc.priority >> 2].remove(pid)
            buckets[new_pri >> 2].append(pid)

    kernel._on_schedcpu(None)

    for pid, proc in kernel.procs.items():
        assert (proc.estcpu, proc.priority, proc.slptime) == expected[pid], pid
    assert _buckets(kernel) == buckets
    _assert_runq_consistent(kernel)


def _two_pass_traps(test):
    # One row takes all three interventions and the second pass barely
    # decays (32.0 -> 31.996, priority 57), so the order the first pass
    # left the other rows in is still there to compare at the end.
    for table in TRAPS.values():
        test = example(
            table=table, load=TRAP_LOAD, load2=4000.0, picks=(1, 1, 1), nice=3
        )(test)
    return test


@_two_pass_traps
@given(
    table=tables,
    load=loads,
    load2=loads,
    picks=st.tuples(*[st.integers(0, 10_000)] * 3),
    nice=st.integers(-20, 20),
)
@settings(max_examples=150, deadline=None)
def test_vector_pass_equals_strict_loop_across_renice_stop_and_cont(
    table, load, load2, picks, nice
):
    strict = _build(True, table, load)
    lazy = _build(False, table, load)
    live = [p.pid for p in strict.live_processes()]

    for kernel in (strict, lazy):
        kernel._on_schedcpu(None)
        if live:
            renice_pid, stop_pid, cont_pid = (live[i % len(live)] for i in picks)
            kernel.renice(renice_pid, nice)
            kernel.kill(stop_pid, SIGSTOP)
            kernel.kill(cont_pid, SIGCONT)
        kernel.loadavg._value = load2
        kernel._on_schedcpu(None)
        _assert_runq_consistent(kernel)

    lazy.flush_lazy_decay()  # parked rows: replay what strict did eagerly
    assert _fields(lazy) == _fields(strict)
    assert _buckets(lazy) == _buckets(strict)
