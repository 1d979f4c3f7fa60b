"""Backend differential-equivalence matrix.

The struct-of-arrays backends (``KernelConfig(backend="batch")`` and
the array-resident ``backend="resident"``) are only allowed to exist
because this battery holds: every backend — strict, optimized, batch,
resident — must produce byte-identical schedules over the full Table 2
workload matrix × seeds 0–4, bare *and* stacked with every
cross-cutting layer (observability, fault injection, journaling +
supervision, overload protection, hierarchical share trees).

Strict is the reference: ``optimized`` and ``batch`` are each compared
against the strict fingerprint of the same cell, so a failure names
the offending backend directly.  Faulted cells are compared across
backends only (a faulted schedule legitimately differs from a clean
one); their fingerprints embed the injector's realized fault trace, so
the comparison also pins that every backend sees the identical fault
sequence.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.faults.plan import FaultPlan, ProcessCrash
from repro.perf.differential import (
    TABLE2_SIZES,
    describe_difference,
    fingerprint_run,
)
from repro.units import sec
from repro.workloads.shares import DISTRIBUTIONS, ShareDistribution, workload_shares

#: Backends checked against the strict reference.
CHALLENGERS = ("optimized", "batch", "resident")

#: Seeds of the acceptance sweep.
SEEDS = (0, 1, 2, 3, 4)

#: Horizon: dozens of ALPS cycles per cell, short enough that the full
#: (3 models × 3 sizes + 4 stacks) × 5 seeds × 3 backends sweep stays
#: in seconds.
HORIZON_US = sec(3)

#: The representative cell for the stacked sweeps (mid-size, uneven
#: shares — exercises suspension, postponement, and wakeup boosts).
STACK_MODEL = ShareDistribution.SKEWED
STACK_N = 10

#: Stacked layers: name -> fingerprint_run keyword arguments.
STACKS: dict[str, dict] = {
    "obs": {"obs": True},
    "journal": {"resilience": True},
    "overload": {"overload": True},
    "sharetree": {"sharetree": True},
}


def _fault_plan() -> FaultPlan:
    """A deterministic plan exercising crash, drop, and read faults."""
    return FaultPlan(
        seed=3,
        crashes=(ProcessCrash(1_500_000, 1),),
        signal_drop_prob=0.05,
        rusage_fail_prob=0.02,
    )


@lru_cache(maxsize=None)
def _fingerprint(model, n, seed, backend, stack):
    kwargs = dict(STACKS.get(stack, {}))
    if stack == "faults":
        kwargs["fault_plan"] = _fault_plan()
    return fingerprint_run(
        workload_shares(model, n),
        seed=seed,
        backend=backend,
        horizon_us=HORIZON_US,
        **kwargs,
    )


def _assert_matches_strict(model, n, seed, backend, stack):
    reference = _fingerprint(model, n, seed, "strict", stack)
    challenger = _fingerprint(model, n, seed, backend, stack)
    assert challenger == reference, (
        f"{backend} diverged from strict on {model.value} n={n} "
        f"seed={seed} stack={stack}: "
        + describe_difference(
            reference, challenger, left="strict", right=backend
        )
    )


@pytest.mark.parametrize("backend", CHALLENGERS)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("n", TABLE2_SIZES)
@pytest.mark.parametrize("model", DISTRIBUTIONS, ids=lambda m: m.value)
def test_backend_matches_strict_on_table2(model, n, seed, backend):
    """Bare Table 2 matrix × seeds 0–4: every backend, byte-identical."""
    _assert_matches_strict(model, n, seed, backend, "plain")


@pytest.mark.parametrize("backend", CHALLENGERS)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("stack", sorted(STACKS) + ["faults"])
def test_backend_matches_strict_stacked(stack, seed, backend):
    """Each cross-cutting layer stacked on the backend sweep.

    obs/journal/overload cells must equal the strict cell with the same
    stack; faulted cells must equal the strict *faulted* cell — the
    fault realization (embedded in the fingerprint) included.
    """
    _assert_matches_strict(STACK_MODEL, STACK_N, seed, backend, stack)


@pytest.mark.parametrize("backend", CHALLENGERS)
def test_backend_matches_strict_all_stacks_at_once(backend):
    """The full pile-up: journal + supervision + overload + obs together."""
    shares = workload_shares(STACK_MODEL, STACK_N)
    kwargs = dict(resilience=True, overload=True, obs=True)
    reference = fingerprint_run(
        shares, seed=0, backend="strict", horizon_us=HORIZON_US, **kwargs
    )
    challenger = fingerprint_run(
        shares, seed=0, backend=backend, horizon_us=HORIZON_US, **kwargs
    )
    assert challenger == reference, describe_difference(
        reference, challenger, left="strict", right=backend
    )


@pytest.mark.parametrize("backend", ("batch", "resident"))
def test_stacked_layers_remain_schedule_invisible_on_soa_backends(backend):
    """obs/journal/overload/sharetree must not perturb the SoA backends'
    schedules either (the invisibility contract each layer already
    holds on strict)."""
    bare = _fingerprint(STACK_MODEL, STACK_N, 0, backend, "plain")
    for stack in STACKS:
        stacked = _fingerprint(STACK_MODEL, STACK_N, 0, backend, stack)
        assert stacked == bare, (
            f"stack={stack} perturbed the {backend} schedule: "
            + describe_difference(bare, stacked, left="bare", right=stack)
        )


def test_unknown_backend_is_rejected():
    from repro.kernel.kconfig import KernelConfig

    with pytest.raises(ValueError, match="unknown kernel backend"):
        KernelConfig(backend="vectorized").resolve_backend()


def test_auto_backend_defers_to_strict_flag():
    from repro.kernel.kconfig import KernelConfig

    assert KernelConfig().resolve_backend() == "optimized"
    assert KernelConfig(strict=True).resolve_backend() == "strict"
    assert KernelConfig(backend="batch", strict=True).resolve_backend() == "batch"


def test_kernel_only_decay_cell_agrees_across_backends():
    """300 spinners × 120 sim-s, no agent: the ``schedcpu`` requeue branch.

    Every cell above runs under an ALPS agent; this one is the bare
    kernel, where ``schedcpu`` moves a *queued* process to another
    bucket ~380 times, so the three implementations of the pass — the
    strict scalar loop, the default kernel's in-place vector pass and
    the batch/resident numpy passes — are pinned against each other.
    A short script of renice / SIGSTOP / SIGCONT / exit / late spawn
    runs on top, so the ``nice`` mirror, the scheduled mask and the
    growth of the columns are part of what must agree.
    """
    from repro.kernel import SIGCONT, SIGKILL, SIGSTOP, make_kernel
    from repro.kernel.kconfig import KernelConfig
    from repro.sim.engine import Engine
    from repro.workloads.spinner import spinner_behavior

    removed: list[int] = []

    def run(backend, spy=False):
        engine = Engine(seed=0)
        kernel = make_kernel(engine, KernelConfig(backend=backend))
        if spy:
            # Spinners never sleep, so but for the script's handful of
            # signals every run-queue removal is a schedcpu requeue.
            remove = kernel.runq.remove
            kernel.runq.remove = lambda proc: (removed.append(proc.pid), remove(proc))
        pids = [kernel.spawn(f"p{i}", spinner_behavior()).pid for i in range(300)]
        engine.run_until(sec(20))
        kernel.renice(pids[3], 10)
        kernel.renice(pids[7], -5)
        kernel.kill(pids[5], SIGSTOP)
        kernel.kill(pids[6], SIGSTOP)
        engine.run_until(sec(45))
        kernel.kill(pids[5], SIGCONT)
        kernel.kill(pids[9], SIGKILL)
        pids += [
            kernel.spawn(f"late{i}", spinner_behavior(), nice=i).pid for i in range(5)
        ]
        engine.run_until(sec(80))
        kernel.renice(pids[5], 3)
        kernel.kill(pids[6], SIGCONT)  # a minute stopped: updatepri replay
        kernel.kill(pids[-1], SIGSTOP)
        engine.run_until(sec(120))
        kernel.flush_lazy_decay()
        per_pid = [
            (
                proc.cpu_time, proc.preemptions, proc.estcpu, proc.priority,
                proc.nice, proc.state, proc.stopped,
            )
            for proc in map(kernel.procs.__getitem__, pids)
        ]
        return per_pid, kernel.context_switches, engine.events_processed

    reference = run("strict", spy=True)
    assert len(removed) > 100, "cell no longer exercises the requeue branch"
    for backend in CHALLENGERS:
        assert run(backend) == reference, f"{backend} diverged from strict"
