"""Seed-stream audit for the batch kernel backend.

Determinism across backends requires more than identical arithmetic: no
backend may *create* (or consume from) an RNG stream the others don't,
because :class:`~repro.sim.rng.RngStreams` seeds streams by name and a
new consumer would shift nothing — but a *shared* consumer would shift
every later draw on that stream.  The audit pins three facts:

* strict and batch runs materialize the identical set of engine stream
  labels (the batch backend introduces no streams of its own);
* the fault injector's streams live in a private ``RngStreams`` keyed
  by the plan seed, disjoint from the engine's streams by construction
  — so no backend can perturb fault draws via the engine;
* the batch module's source never touches an RNG at all.
"""

from __future__ import annotations

import inspect

from repro.alps.config import AlpsConfig
from repro.faults.plan import FaultPlan, ProcessCrash
from repro.kernel.kconfig import KernelConfig
from repro.units import sec
from repro.workloads.scenarios import build_controlled_workload

SHARES = [5, 3, 2, 1]
HORIZON_US = sec(2)


def _run(backend: str, *, fault_plan: FaultPlan | None = None):
    cw = build_controlled_workload(
        SHARES,
        AlpsConfig(),
        seed=7,
        kernel_config=KernelConfig(strict=(backend == "strict"), backend=backend),
        fault_plan=fault_plan,
    )
    cw.engine.run_until(HORIZON_US)
    return cw


def test_batch_backend_creates_no_new_engine_streams():
    strict = _run("strict")
    batch = _run("batch")
    assert set(batch.engine.rng._streams) == set(strict.engine.rng._streams)


def test_injector_streams_disjoint_from_engine_streams():
    plan = FaultPlan(
        seed=3,
        crashes=(ProcessCrash(500_000, 1),),
        signal_drop_prob=0.05,
        rusage_fail_prob=0.02,
    )
    runs = {backend: _run(backend, fault_plan=plan) for backend in ("strict", "batch")}
    labels = {}
    for backend, cw in runs.items():
        injector_streams = set(cw.injector.rng._streams)
        engine_streams = set(cw.engine.rng._streams)
        # Private RngStreams objects: even an identical label would be an
        # independent generator, but keeping the *label namespaces*
        # disjoint is what makes "who consumed this draw" auditable.
        assert cw.injector.rng is not cw.engine.rng
        assert injector_streams, "fault plan should have drawn at least once"
        labels[backend] = (injector_streams, engine_streams)
    assert labels["batch"] == labels["strict"]


def test_batch_module_source_never_touches_rng():
    import repro.kernel.batch as batch_module

    source = inspect.getsource(batch_module)
    for needle in ("rng", "random", "RngStreams"):
        assert needle not in source, (
            f"{needle!r} appears in repro.kernel.batch — the batch backend "
            "must stay RNG-free to preserve cross-backend draw order"
        )
