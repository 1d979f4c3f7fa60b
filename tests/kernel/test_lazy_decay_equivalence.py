"""Strict-vs-lazy estcpu decay equivalence (property test).

The kernel defers per-second slptime/decay bookkeeping for parked
(sleeping/stopped) processes and replays it on wakeup, 4.4BSD
``updatepri`` style.  ``KernelConfig(strict=True)`` keeps the original
eager loop.  For any workload the two must be indistinguishable: same
event stream, and — after ``flush_lazy_decay`` materialises deferred
state — bit-identical per-process estcpu, slptime, and priority at any
instant.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.kernel.actions import Compute, Sleep
from repro.kernel.behaviors import GeneratorBehavior
from repro.kernel.kconfig import KernelConfig
from repro.kernel.kernel import Kernel
from repro.kernel.process import ProcState
from repro.kernel.signals import SIGCONT, SIGSTOP
from repro.sim.engine import Engine
from repro.units import ms, sec

#: Per-process scripts of (compute, sleep) phases in 10 ms units.
#: Sleeps reach past 1 s so the 4.4BSD wakeup-decay (slptime >= 1 s)
#: path runs, and computes are long enough to accrue estcpu across
#: schedcpu passes.
scripts = st.lists(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 250)),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=4,
)


def _scripted(phases):
    def factory(proc, kapi):
        for comp_10ms, sleep_10ms in phases:
            if comp_10ms:
                yield Compute(comp_10ms * ms(10))
            if sleep_10ms:
                yield Sleep(sleep_10ms * ms(10))
        while True:  # settle into a spinner so the run stays busy
            yield Compute(ms(50))

    return GeneratorBehavior(factory)


def _build(strict: bool, scripts_):
    engine = Engine(seed=0)
    kernel = Kernel(engine, KernelConfig(strict=strict))
    for i, phases in enumerate(scripts_):
        kernel.spawn(f"p{i}", _scripted(phases))
    return engine, kernel


@given(scripts_=scripts)
@settings(max_examples=30, deadline=None)
def test_lazy_decay_matches_eager_at_every_checkpoint(scripts_):
    eager_engine, eager_kernel = _build(True, scripts_)
    lazy_engine, lazy_kernel = _build(False, scripts_)
    assert eager_kernel._lazy is False and lazy_kernel._lazy is True

    for checkpoint in range(1, 9):
        horizon = checkpoint * sec(1)
        eager_engine.run_until(horizon)
        lazy_engine.run_until(horizon)
        # Same schedule: the event streams must not diverge.
        assert (
            lazy_engine.events_processed == eager_engine.events_processed
        ), f"event streams diverged by t={horizon}"
        # Same per-process scheduler state once deferred bookkeeping is
        # materialised (flush is idempotent and schedule-invisible).
        lazy_kernel.flush_lazy_decay()
        for pid, eager_proc in eager_kernel.procs.items():
            lazy_proc = lazy_kernel.procs[pid]
            assert lazy_proc.state is eager_proc.state, (pid, horizon)
            assert lazy_proc.estcpu == eager_proc.estcpu, (pid, horizon)
            assert lazy_proc.slptime == eager_proc.slptime, (pid, horizon)
            assert lazy_proc.priority == eager_proc.priority, (pid, horizon)
            assert lazy_proc.cpu_time == eager_proc.cpu_time, (pid, horizon)


@given(scripts_=scripts)
@settings(max_examples=20, deadline=None)
def test_slptime_of_materialises_on_read(scripts_):
    """Reading slptime through the public accessor must already include
    any deferred accrual — callers never see stale parked state."""
    lazy_engine, lazy_kernel = _build(False, scripts_)
    eager_engine, eager_kernel = _build(True, scripts_)
    lazy_engine.run_until(sec(5))
    eager_engine.run_until(sec(5))
    for pid in eager_kernel.procs:
        assert lazy_kernel.slptime_of(pid) == eager_kernel.slptime_of(pid)


def test_renice_of_a_parked_process_replays_its_decay_with_the_old_nice():
    """The eager kernel decays a fresh sleeper at the first pass after it
    went to sleep, with the nice it has at that pass.  A ``renice`` that
    arrives later must not change what the deferred replay computes."""
    # pid 1 computes 0.4 s and sleeps 2.5 s, four times, beside two
    # spinners; at 8.5 s it is a second into its third sleep (one pass
    # since it parked) and the load average is above zero.
    script = [[(40, 250)] * 4, [(40, 0)], [(40, 0)]]
    states = []
    for strict in (True, False):
        engine, kernel = _build(strict, script)
        engine.run_until(sec(8) + ms(500))
        proc = kernel.procs[1]
        assert proc.state is ProcState.SLEEPING and kernel.loadavg.value > 0.0
        kernel.renice(1, 7)
        kernel.flush_lazy_decay()
        after_renice = (proc.estcpu, proc.priority, proc.slptime)
        engine.run_until(sec(12))
        kernel.flush_lazy_decay()
        states.append(
            (after_renice, proc.estcpu, proc.priority, engine.events_processed)
        )
    assert states[0] == states[1]
    assert states[0][0][0] > 0.0  # there was usage to decay


def test_renice_of_a_just_woken_process_keeps_its_boost_in_both_kernels():
    """Same workload, but pid 1 is SIGSTOPped in its third sleep and the
    sleep expires under the stop: it is runnable, boosted and — in the
    lazy kernel — still parked when the ``renice`` arrives, so the
    deferred decay is replayed under a pending boost."""
    script = [[(40, 250)] * 4, [(40, 0)], [(40, 0)]]
    states = []
    for strict in (True, False):
        engine, kernel = _build(strict, script)
        engine.run_until(sec(8) + ms(500))
        proc = kernel.procs[1]
        kernel.kill(1, SIGSTOP)
        engine.run_until(sec(11))
        assert proc.state is ProcState.RUNNABLE and proc.stopped
        assert proc.boost_priority == kernel.cfg.sleep_priority
        kernel.renice(1, 7)
        kernel.flush_lazy_decay()
        after_renice = (proc.estcpu, proc.priority, proc.slptime)
        assert proc.priority == kernel.cfg.sleep_priority
        kernel.kill(1, SIGCONT)
        assert kernel.current is proc  # the boost carried it past the spinners
        engine.run_until(sec(14))
        kernel.flush_lazy_decay()
        states.append(
            (after_renice, proc.estcpu, proc.priority, engine.events_processed)
        )
    assert states[0] == states[1]
