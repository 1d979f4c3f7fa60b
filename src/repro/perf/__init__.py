"""Performance instrumentation for the simulation substrate.

Three concerns, kept deliberately separate:

* :mod:`repro.perf.counters` — cheap named counters/timers that hot
  components account into at call granularity (never per event);
* :mod:`repro.perf.profiler` — cProfile and wall-clock helpers for
  ad-hoc investigation of the hot path;
* :mod:`repro.perf.differential` — the equivalence harness that runs
  the same workload over the strict (eager) and optimized (lazy)
  kernel paths and asserts byte-identical schedules;
* :mod:`repro.perf.report` — collection and rendering of a run's
  counter snapshot (the ``repro perf report`` CLI subcommand).

See docs/performance.md for the methodology.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "PerfCounters": "repro.perf.counters",
})
