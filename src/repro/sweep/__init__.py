"""Memoized, parallel execution of experiment sweeps.

The paper's results are a matrix of independent simulation cells
(model × N × quantum × seed); every cell is deterministic in its
configuration, so recomputing one whose inputs have not changed is
wasted work.  This package applies the memoized task-graph pattern of
batch experiment managers (experimaestro, accasim — see PAPERS.md) to
that matrix:

* :mod:`repro.sweep.cache` — a **content-addressed result cache**.  A
  cell's key is the SHA-256 of its canonicalized configuration
  (experiment id + parameters) plus a fingerprint of the source code
  it runs; results are JSON blobs under ``~/.cache/repro-sweep``
  (override with ``REPRO_SWEEP_CACHE``).  Any code or config change
  moves the key, so stale results are structurally unreachable.
* :mod:`repro.sweep.fingerprint` — the code fingerprint: a hash over
  the source files of the modules a cell imports.
* :mod:`repro.sweep.codec` — the one result codec: a worker's typed
  result is encoded to JSON on the worker side and decoded from the
  worker's return annotation, so a cache hit is exactly a fresh run.
* :mod:`repro.sweep.scheduler` — a **unified sweep scheduler**:
  declarative :class:`SweepSpec` (cells + a picklable worker, called
  with each cell's parameters as keyword arguments), process
  pool execution with ordered streaming results, per-cell timeout and
  retry, graceful ``KeyboardInterrupt`` draining, and cache-aware
  dispatch (hits short-circuit before anything is pickled to a
  worker).

Every ``repro run``/``repro report`` experiment path dispatches
through this package, which is what makes a warm ``repro report``
incremental.  Cache hit/miss totals are exported through the
:mod:`repro.obs` metrics registry and shown in each CLI command's
footer.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "CacheStats": "repro.sweep.cache",
    "CellResult": "repro.sweep.scheduler",
    "SweepCache": "repro.sweep.cache",
    "SweepCell": "repro.sweep.scheduler",
    "SweepOutcome": "repro.sweep.scheduler",
    "SweepSpec": "repro.sweep.scheduler",
    "cache_key": "repro.sweep.cache",
    "canonical_json": "repro.sweep.cache",
    "canonicalize": "repro.sweep.cache",
    "clear_fingerprint_cache": "repro.sweep.fingerprint",
    "code_fingerprint": "repro.sweep.fingerprint",
    "default_cache_root": "repro.sweep.cache",
    "default_sweep_workers": "repro.sweep.scheduler",
    "load_persistent_stats": "repro.sweep.cache",
    "run_sweep": "repro.sweep.scheduler",
})
