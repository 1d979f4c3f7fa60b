"""``KernelAPI.read_progress``: one read equal to the three single reads.

The agent measures each due pid with one ``read_progress`` call; it
must answer exactly what ``getrusage``, ``is_blocked`` and
``is_stopped`` answer one by one, in every process state and on every
kernel backend, and go through the fault injector's ``read`` stream
exactly as ``getrusage`` does.
"""

from __future__ import annotations

import pytest

from repro.errors import NoSuchProcessError, TransientReadError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.kernel import KERNEL_BACKENDS, KernelConfig, make_kernel
from repro.kernel.actions import Compute, Exit, Sleep, SleepOn
from repro.kernel.behaviors import GeneratorBehavior
from repro.kernel.process import ProcState
from repro.kernel.signals import SIGSTOP
from repro.sim.engine import Engine
from repro.units import ms
from repro.workloads.spinner import spinner_behavior


def _then(*actions):
    def gen(proc, kapi):
        yield Compute(ms(1))
        yield from actions

    return GeneratorBehavior(gen)


def _zoo(backend: str):
    """A kernel holding a process in each state the agent can meet."""
    engine = Engine(seed=0)
    kernel = make_kernel(engine, KernelConfig(backend=backend))
    # The short-lived ones first, so each reaches its state before the
    # spinners take their slices.
    procs = {
        "channel": kernel.spawn("channel", _then(SleepOn("pipe"))),
        "timed": kernel.spawn("timed", _then(Sleep(ms(500)))),
        "stopped-asleep": kernel.spawn("stopped-asleep", _then(SleepOn("nfs"))),
        "zombie": kernel.spawn("zombie", _then(Exit())),
        "spin-a": kernel.spawn("spin-a", spinner_behavior()),
        "spin-b": kernel.spawn("spin-b", spinner_behavior()),
        "stopped": kernel.spawn("stopped", spinner_behavior()),
    }
    engine.run_until(ms(40))
    kernel.kill(procs["stopped"].pid, SIGSTOP)
    kernel.kill(procs["stopped-asleep"].pid, SIGSTOP)
    engine.run_until(ms(45) + 137)  # mid-slice: the runner has CPU in flight
    return engine, kernel, procs


@pytest.mark.parametrize("backend", sorted(KERNEL_BACKENDS))
def test_read_progress_equals_the_three_reads(backend):
    _engine, kernel, procs = _zoo(backend)
    kapi = kernel.kapi
    seen = set()
    for name, proc in procs.items():
        if name == "zombie":
            continue
        pid = proc.pid
        expected = (kapi.getrusage(pid), kapi.is_blocked(pid), kapi.is_stopped(pid))
        assert kapi.read_progress(pid) == expected, name
        seen.add((name, proc.state, proc.stopped))
    assert {
        ("channel", ProcState.SLEEPING, False),
        ("timed", ProcState.SLEEPING, False),
        ("stopped-asleep", ProcState.SLEEPING, True),
        ("stopped", ProcState.RUNNABLE, True),
    } <= seen
    spinners = {state for name, state, _ in seen if name.startswith("spin-")}
    assert spinners == {ProcState.RUNNING, ProcState.RUNNABLE}


@pytest.mark.parametrize("backend", sorted(KERNEL_BACKENDS))
def test_read_progress_of_a_zombie_or_unknown_pid_raises(backend):
    _engine, kernel, procs = _zoo(backend)
    zombie = procs["zombie"]
    assert zombie.state is ProcState.ZOMBIE
    for pid in (zombie.pid, 31337):
        with pytest.raises(NoSuchProcessError):
            kernel.kapi.getrusage(pid)
        with pytest.raises(NoSuchProcessError):
            kernel.kapi.read_progress(pid)


def test_faulty_read_progress_draws_what_getrusage_draws():
    """Same plan, same pids, same order: the ``read-fail`` trace lines,
    the failures and the ``read`` stream's position are identical
    whichever of the two reads the agent makes."""

    def drive(read_name: str):
        engine, kernel, procs = _zoo("optimized")
        injector = FaultInjector(
            FaultPlan(seed=5, rusage_fail_prob=0.3), engine, kernel
        )
        fkapi = injector.wrap(kernel.kapi)
        read = getattr(fkapi, read_name)
        outcomes = []
        for _ in range(20):
            for name, proc in procs.items():
                try:
                    value = read(proc.pid)
                except TransientReadError:
                    outcomes.append((name, "transient"))
                except NoSuchProcessError:
                    outcomes.append((name, "gone"))
                else:
                    cpu = value[0] if read_name == "read_progress" else value
                    outcomes.append((name, cpu))
        position = float(injector.rng.stream("read").random())
        return injector.trace_lines(), outcomes, injector.reads_failed, position

    via_getrusage = drive("getrusage")
    via_read_progress = drive("read_progress")
    assert via_read_progress == via_getrusage
    trace = via_getrusage[0]
    assert trace and all(" read-fail pid=" in line for line in trace)
