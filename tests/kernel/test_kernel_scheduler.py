"""Decay-usage scheduler behaviour: fairness, nice, interactivity."""

import pytest

from repro.kernel.actions import Compute, Sleep, SleepOn
from repro.kernel.behaviors import GeneratorBehavior
from repro.kernel.kconfig import KernelConfig
from repro.kernel.kernel import Kernel
from repro.kernel.signals import SIGCONT, SIGSTOP
from repro.sim.engine import Engine
from repro.units import ms, sec
from repro.workloads.spinner import spinner_behavior


def make_kernel(**kw):
    eng = Engine(seed=0)
    return eng, Kernel(eng, KernelConfig(ctx_switch_us=0, **kw))


def test_n_spinners_share_fairly():
    eng, k = make_kernel()
    procs = [k.spawn(f"p{i}", spinner_behavior()) for i in range(5)]
    eng.run_until(sec(20))
    usages = [k.getrusage(p.pid) for p in procs]
    mean = sum(usages) / len(usages)
    for u in usages:
        assert u == pytest.approx(mean, rel=0.10)


def test_rotation_granularity_is_subsecond():
    """Priority decay rotates equal spinners within tens of ms."""
    eng, k = make_kernel()
    k.spawn("a", spinner_behavior())
    k.spawn("b", spinner_behavior())
    eng.run_until(sec(5))
    # At least one switch per ~slice on average.
    assert k.context_switches >= 5_000_000 // k.cfg.slice_us


def test_niced_process_gets_less_cpu():
    eng, k = make_kernel()
    normal = k.spawn("normal", spinner_behavior(), nice=0)
    niced = k.spawn("niced", spinner_behavior(), nice=10)
    eng.run_until(sec(20))
    assert k.getrusage(niced.pid) < k.getrusage(normal.pid) * 0.8


def test_interactive_process_low_latency_under_load():
    """A mostly-sleeping process wakes promptly despite CPU hogs."""
    eng, k = make_kernel()
    for i in range(4):
        k.spawn(f"hog{i}", spinner_behavior())
    latencies = []

    def gen(proc, kapi):
        while True:
            yield Sleep(ms(50))
            due = kapi.now
            yield Compute(ms(1))
            latencies.append(kapi.now - due - ms(1))

    k.spawn("interactive", GeneratorBehavior(gen))
    eng.run_until(sec(10))
    assert latencies
    # Wakeup boost: dispatched immediately; only its own 1 ms compute
    # can be preempted mid-way occasionally.
    median = sorted(latencies)[len(latencies) // 2]
    assert median < ms(5)


def test_loadavg_tracks_runnable_count():
    eng, k = make_kernel()
    for i in range(6):
        k.spawn(f"p{i}", spinner_behavior())
    eng.run_until(sec(120))
    assert k.loadavg.value == pytest.approx(6.0, rel=0.15)


def test_estcpu_reaches_equilibrium_not_limit():
    """With two spinners, decay balances charging below the clamp."""
    eng, k = make_kernel()
    a = k.spawn("a", spinner_behavior())
    k.spawn("b", spinner_behavior())
    eng.run_until(sec(60))
    assert 0 < a.estcpu < k.cfg.estcpu_limit


def test_busy_accounting_consistent():
    eng, k = make_kernel()
    k.spawn("a", spinner_behavior())
    eng.run_until(sec(3))
    k._charge_current()
    assert k.total_busy_us == pytest.approx(sec(3), abs=ms(1))


def _waiter(channel):
    def gen(proc, kapi):
        yield SleepOn(channel)
        while True:
            yield Compute(ms(50))

    return GeneratorBehavior(gen)


@pytest.mark.parametrize("strict", [True, False])
def test_renice_keeps_a_pending_wakeup_boost_on_the_run_queue(strict):
    """4.4BSD ``resetpriority`` rewrites ``p_usrpri`` only: a process
    still holding its tsleep priority keeps its bucket across a renice."""

    def waker(proc, kapi):
        yield Compute(ms(100))
        kapi.wakeup("chan")  # both waiters become runnable, boosted
        while True:
            yield Compute(ms(50))

    eng, k = make_kernel(strict=strict)
    k.spawn("waker", GeneratorBehavior(waker))
    first = k.spawn("first", _waiter("chan"))
    second = k.spawn("second", _waiter("chan"))
    eng.run_until(ms(100))
    # One reschedule dispatched ``first``; ``second`` waits behind it in
    # the boosted bucket, ahead of the preempted waker.
    boosted = k.cfg.sleep_priority
    assert k.current is first
    assert second.pid in k._on_runq
    assert (second.priority, second.boost_priority) == (boosted, boosted)

    assert k.renice(second.pid, 10) == 0
    # Still boosted, so it preempts ``first`` (user priority, boost
    # spent) instead of dropping behind the waker at PUSER + 2 * 10.
    assert k.current is second
    assert second.boost_priority is None
    assert second.priority == k.cfg.puser + k.cfg.nice_weight * 10


@pytest.mark.parametrize("strict", [True, False])
def test_renice_keeps_the_boost_of_a_process_woken_while_stopped(strict):
    eng, k = make_kernel(strict=strict)
    hog = k.spawn("hog", spinner_behavior())
    napper = k.spawn("napper", _waiter("chan"))
    eng.run_until(ms(300))
    k.kill(napper.pid, SIGSTOP)
    k.wakeup("chan")  # runnable but stopped: the boost stays pending
    boosted = k.cfg.sleep_priority
    assert napper.runnable is False and napper.boost_priority == boosted

    k.renice(napper.pid, 10)
    assert (napper.priority, napper.boost_priority) == (boosted, boosted)
    k.kill(napper.pid, SIGCONT)
    assert k.current is napper and hog.pid in k._on_runq
