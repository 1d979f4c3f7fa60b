"""What the optional layers cost per quantum, counted instead of timed.

A stacked Table 2 cell (observer, journal + supervisor, overload guard,
flat share tree, null fault plan) runs two simulated seconds under
``sys.setprofile``; every Python function entered whose module is in
``repro.obs``, ``repro.resilience`` or ``repro.overload`` is counted —
including the ``__init__`` a dataclass of that package generates — and
divided by the agent's quanta.  The counts are deterministic, so the
bounds are the current code's counts exactly: an event or span built
per emit instead of on read, or a call hop more on the journal path or
the overload wake path, fails here with no wall-clock noise.
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.alps.config import AlpsConfig
from repro.faults.plan import FaultPlan
from repro.obs import Observer
from repro.overload import OverloadGuard
from repro.resilience.journal import MemoryJournal
from repro.resilience.supervisor import RestartPolicy, Supervisor
from repro.sharetree import ShareTree
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.shares import ShareDistribution, workload_shares

QUANTUM_US = ms(10)

#: Calls into each package per agent quantum, at most.  What the
#: stacked cell enters per quantum: ``obs`` — two ``kernel.ctxsw`` and
#: one ``quantum.tick`` emit, the eligibility and cycle emits, the
#: ``timer_event``/``measure``/``signal`` span records; ``resilience``
#: — the supervision wrapper and heartbeat per agent action, one
#: ``journal_quantum`` with its store append and row captures;
#: ``overload`` — the wake's ``observe_wake``, slip EWMA, ladder update
#: and admission-queue depth.  Before events and spans were built on
#: read and the guard cached what its rung decides, the same cell
#: entered 9.35, 9.855 and 5.985 (what the journal path lost — an
#: import, a closure, a dict, a keyword call — makes no call).  Counted on CPython 3.11 and not
#: checked on other versions; 3.12 inlines comprehensions (PEP 709),
#: which takes their calls out of the count.
BOUNDS = {
    "repro.obs": 4.675,
    "repro.resilience": 9.855,
    "repro.overload": 3.985,
}


def calls_per_quantum() -> dict[str, float]:
    shares = workload_shares(ShareDistribution.EQUAL, 10)
    cw = build_controlled_workload(
        shares,
        AlpsConfig(quantum_us=QUANTUM_US),
        seed=0,
        observer=Observer(),
        journal=MemoryJournal(),
        supervisor=Supervisor(RestartPolicy(), quantum_us=QUANTUM_US),
        overload=OverloadGuard(),
        sharetree=ShareTree.flat(shares),
        fault_plan=FaultPlan(),
    )
    counts: Counter[str] = Counter()

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            for package in BOUNDS:
                if module.startswith(package):
                    counts[package] += 1

    sys.setprofile(profile)
    try:
        cw.engine.run_until(sec(2))
    finally:
        sys.setprofile(None)
    quanta = cw.agent.invocations
    assert quanta == 200
    return {package: counts[package] / quanta for package in BOUNDS}


def test_layer_calls_per_quantum_stay_within_bounds():
    measured = calls_per_quantum()
    over = {
        package: (per_quantum, BOUNDS[package])
        for package, per_quantum in measured.items()
        if per_quantum > BOUNDS[package]
    }
    assert not over, f"calls per quantum above the bound (measured, bound): {over}"
