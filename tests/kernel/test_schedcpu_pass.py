"""One ``schedcpu`` pass equals the readable spec (property test).

``Kernel._on_schedcpu`` inlines :func:`decay_estcpu` and
:func:`user_priority` over per-pass constants.  For any population —
any estcpu, nice, load (zero included), wakeup boost, and any mix of
runnable / sleeping / stopped / zombie processes, eager (``strict``) or
lazy — one pass must leave every PCB's ``(estcpu, priority, slptime)``
exactly where the module functions put it, and the run queue must hold
each runnable process in the bucket of its new priority.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.kernel.kconfig import KernelConfig
from repro.kernel.kernel import Kernel
from repro.kernel.priorities import decay_estcpu, user_priority
from repro.kernel.process import Process, ProcState
from repro.sim.engine import Engine

CFG = KernelConfig()

#: estcpu values that sit on both clamps as well as inside the range.
estcpus = st.one_of(
    st.sampled_from([0.0, CFG.estcpu_limit]),
    st.floats(0.0, CFG.estcpu_limit, allow_nan=False),
)

pcbs = st.lists(
    st.fixed_dictionaries(
        {
            "estcpu": estcpus,
            "nice": st.integers(-20, 20),
            "priority": st.integers(0, CFG.maxpri),
            "boost": st.sampled_from([None, CFG.sleep_priority]),
            "kind": st.sampled_from(["runnable", "sleeping", "stopped", "zombie"]),
            "slptime": st.integers(0, 3),
        }
    ),
    min_size=1,
    max_size=12,
)

loads = st.one_of(st.just(0.0), st.floats(0.0, 4000.0, allow_nan=False))


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


@given(population=pcbs, load=loads, strict=st.booleans())
@settings(max_examples=300, deadline=None)
def test_one_pass_matches_decay_estcpu_and_user_priority(population, load, strict):
    cfg = KernelConfig(strict=strict)
    kernel = Kernel(Engine(seed=0), cfg)
    kernel.loadavg._value = load
    for pid, spec in enumerate(population, start=1):
        proc = Process(pid=pid, name=f"p{pid}", uid=0, nice=spec["nice"], behavior=None)
        proc.estcpu = spec["estcpu"]
        proc.priority = spec["priority"]
        proc.boost_priority = spec["boost"]
        kind = spec["kind"]
        if kind == "zombie":
            proc.state = ProcState.ZOMBIE
        elif kind == "sleeping":
            proc.state = ProcState.SLEEPING
            proc.slptime = spec["slptime"]
        elif kind == "stopped":
            proc.stopped = True
            proc.slptime = spec["slptime"]
        else:
            kernel.runq.insert(proc)
            kernel._on_runq.add(pid)
        kernel.procs[pid] = proc
    expected = {
        pid: _spec(cfg, strict, load, proc) for pid, proc in kernel.procs.items()
    }

    # Defer the trailing reschedule (as inside an event handler) so the
    # dispatcher does not consume a boost before the state is compared.
    kernel._dispatch_depth = 1
    kernel._on_schedcpu(None)

    for pid, proc in kernel.procs.items():
        assert (proc.estcpu, proc.priority, proc.slptime) == expected[pid], pid
    assert len(kernel.runq) == len(kernel._on_runq)
    for pid in kernel._on_runq:
        proc = kernel.procs[pid]
        assert proc in kernel.runq._queues[proc.priority >> 2]
