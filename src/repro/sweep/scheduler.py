"""The unified sweep scheduler: cache-aware, pooled, ordered.

One code path replaces the ad-hoc per-experiment loops: a
:class:`SweepSpec` names the cells (JSON-canonicalizable parameter
mappings) and a picklable module-level worker — an experiment's own
point function, called as ``worker(**cell.params)``; :func:`run_sweep`
executes it with

* **cache-aware dispatch** — each cell's content-addressed key is
  checked first, and hits short-circuit before anything is pickled to
  a worker process;
* **process-pool execution with ordered results** — misses fan out
  over a :class:`~concurrent.futures.ProcessPoolExecutor`; results are
  delivered (and streamed via ``on_result``) in input order regardless
  of completion order;
* **per-cell timeout and retry** — transient failures (the
  :class:`~repro.errors.TransientReadError` family from the fault
  taxonomy) and timeouts are retried up to ``retries`` times; anything
  else raises a :class:`~repro.errors.SweepCellError` naming the exact
  failing cell configuration;
* **graceful interruption** — on ``KeyboardInterrupt`` the pool is
  shut down without waiting, results computed so far are already in
  the cache, stats are flushed, and the interrupt propagates;
* **serial degradation** — one worker, one cell, an unpicklable
  worker, or a broken pool all fall back to in-process execution with
  identical semantics;
* **one result codec** — :mod:`repro.sweep.codec` encodes each result
  on the worker side and decodes it from the worker's return
  annotation, so fresh results and cache hits are the same typed
  values.
"""

from __future__ import annotations

import inspect
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.errors import (
    SweepCellError,
    SweepCellTimeoutError,
    TransientReadError,
)
from repro.sweep.cache import CacheStats, SweepCache, cache_key
from repro.sweep.codec import decode, encode, result_type
from repro.sweep.fingerprint import DEFAULT_MODULES, code_fingerprint

#: Worker exceptions worth retrying (the transient half of the fault
#: taxonomy); everything else fails the cell immediately.
RETRYABLE_EXCEPTIONS: tuple[type[BaseException], ...] = (TransientReadError,)


def default_sweep_workers() -> int:
    """Worker count: ``$REPRO_SWEEP_WORKERS`` or CPUs minus one."""
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring non-integer REPRO_SWEEP_WORKERS={env!r}",
                RuntimeWarning,
                stacklevel=2,
            )
    return max(1, (os.cpu_count() or 1) - 1)


@dataclass(slots=True, frozen=True)
class SweepCell:
    """One unit of sweep work: an experiment id plus its parameters.

    ``params`` must be JSON-canonicalizable (see
    :func:`repro.sweep.cache.canonicalize`) and picklable; it is both
    the worker's keyword arguments and the cell's cache identity.  Name
    only the arguments the sweep varies: defaults live once, in the
    worker's signature, which the code fingerprint already covers.
    """

    experiment: str
    params: Mapping[str, Any]


@dataclass(slots=True)
class SweepSpec:
    """A declarative sweep: cells plus the worker that computes one.

    ``worker`` is called as ``worker(**cell.params)`` — an experiment's
    point function — and must be module-level for pooled runs.  Its
    result must be encodable by :func:`repro.sweep.codec.encode`; it
    comes back decoded from ``worker``'s return annotation.  A worker
    whose only parameter is named ``params`` is instead passed the
    mapping itself (the older calling convention).
    ``cacheable=False`` opts the whole sweep out of the cache (live
    host measurements, wall-clock benchmarks).
    """

    worker: Callable[..., Any]
    cells: Sequence[SweepCell]
    fingerprint_modules: Sequence[str] = DEFAULT_MODULES
    cacheable: bool = True


@dataclass(slots=True)
class CellResult:
    """One cell's outcome: the decoded result plus how it was obtained."""

    cell: SweepCell
    value: Any
    cached: bool
    attempts: int
    key: Optional[str]


@dataclass(slots=True)
class SweepOutcome:
    """Ordered results of one sweep plus its cache/dispatch census."""

    results: list[CellResult] = field(default_factory=list)
    stats: CacheStats = field(default_factory=CacheStats)
    workers: int = 1

    @property
    def values(self) -> list[Any]:
        """Decoded results in cell order."""
        return [r.value for r in self.results]

    def footer(self) -> str:
        """One-line summary for CLI command footers."""
        total = len(self.results)
        cached = self.stats.hits
        line = (
            f"[sweep: {total} cells, {cached} cache hits, "
            f"{self.stats.misses} misses"
        )
        if self.stats.invalidations:
            line += f", {self.stats.invalidations} invalidated"
        return line + f", {self.workers} worker(s)]"


def _picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def _takes_mapping(worker: Callable[..., Any]) -> bool:
    """Whether ``worker`` keeps the older calling convention: its only
    parameter is ``params``, and it is passed the mapping itself."""
    return list(inspect.signature(worker).parameters) == ["params"]


def _call(
    worker: Callable[..., Any], params: Mapping[str, Any], mapping: bool
) -> Any:
    """Compute one cell and encode its result (runs in the worker)."""
    return encode(worker(params) if mapping else worker(**params))


def _run_serial(
    spec: SweepSpec, cell: SweepCell, retries: int, mapping: bool
) -> tuple[Any, int]:
    """Run one cell inline with the retry policy (no timeout: a serial
    worker cannot be preempted)."""
    attempts = 0
    while True:
        attempts += 1
        try:
            return _call(spec.worker, cell.params, mapping), attempts
        except RETRYABLE_EXCEPTIONS as exc:
            if attempts > retries:
                raise SweepCellError(
                    cell.experiment, cell.params, repr(exc), attempts=attempts
                ) from exc
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            raise SweepCellError(
                cell.experiment, cell.params, repr(exc), attempts=attempts
            ) from exc


def run_sweep(
    spec: SweepSpec,
    *,
    workers: Optional[int] = None,
    cache: Optional[SweepCache] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    on_result: Optional[Callable[[CellResult], None]] = None,
) -> SweepOutcome:
    """Execute ``spec`` and return ordered results (see module docstring).

    ``cache=None`` disables caching.  ``timeout_s`` bounds, per cell,
    how long the coordinator waits once that cell reaches the head of
    the in-order collection (pool mode only); a timed-out attempt is
    resubmitted up to ``retries`` times, then raises
    :class:`~repro.errors.SweepCellTimeoutError`.  ``on_result`` is
    called in strict cell order as results become deliverable.
    """
    nworkers = default_sweep_workers() if workers is None else max(1, workers)
    outcome = SweepOutcome(workers=nworkers)
    use_cache = cache is not None and spec.cacheable
    fingerprint = (
        code_fingerprint(tuple(spec.fingerprint_modules)) if use_cache else ""
    )
    rtype = result_type(spec.worker)
    mapping = _takes_mapping(spec.worker)

    n = len(spec.cells)
    slots: list[Optional[CellResult]] = [None] * n
    emitted = 0

    def emit_ready() -> None:
        nonlocal emitted
        while emitted < n and slots[emitted] is not None:
            if on_result is not None:
                on_result(slots[emitted])
            emitted += 1

    before = CacheStats(**cache.stats.as_dict()) if use_cache else CacheStats()

    # -- cache probe: hits never reach a worker ----------------------
    pending: list[tuple[int, SweepCell, Optional[str]]] = []
    for idx, cell in enumerate(spec.cells):
        key: Optional[str] = None
        if use_cache:
            key = cache_key(cell.experiment, cell.params, fingerprint)
            hit, payload = cache.get(key)
            if hit:
                slots[idx] = CellResult(
                    cell=cell, value=decode(rtype, payload), cached=True,
                    attempts=0, key=key,
                )
                continue
        pending.append((idx, cell, key))

    def store(idx: int, cell: SweepCell, key: Optional[str], payload: Any,
              attempts: int) -> None:
        if use_cache and key is not None:
            cache.put(
                key,
                payload,
                experiment=cell.experiment,
                params=cell.params,
                fingerprint=fingerprint,
            )
        slots[idx] = CellResult(
            cell=cell, value=decode(rtype, payload), cached=False,
            attempts=attempts, key=key,
        )

    pool_ok = (
        nworkers > 1
        and len(pending) > 1
        and _picklable(spec.worker)
        and all(_picklable(cell.params) for _i, cell, _k in pending)
    )
    if nworkers > 1 and len(pending) > 1 and not pool_ok:
        warnings.warn(
            "sweep worker or cell params are not picklable; "
            "running the sweep serially",
            RuntimeWarning,
            stacklevel=2,
        )

    try:
        if not pool_ok:
            for idx, cell, key in pending:
                emit_ready()
                payload, attempts = _run_serial(spec, cell, retries, mapping)
                store(idx, cell, key, payload, attempts)
        else:
            _run_pooled(
                spec, mapping, pending, nworkers, timeout_s, retries, store,
                emit_ready,
            )
    finally:
        if use_cache:
            cache.flush_stats()
            outcome.stats = CacheStats(**cache.stats.as_dict())
            for k in ("hits", "misses", "stores", "invalidations"):
                setattr(
                    outcome.stats, k,
                    getattr(outcome.stats, k) - getattr(before, k),
                )
        else:
            outcome.stats.misses = sum(
                1 for r in slots if r is not None and not r.cached
            )

    emit_ready()
    outcome.results = [r for r in slots if r is not None]
    return outcome


def _run_pooled(
    spec: SweepSpec,
    mapping: bool,
    pending: Sequence[tuple[int, SweepCell, Optional[str]]],
    nworkers: int,
    timeout_s: Optional[float],
    retries: int,
    store: Callable[[int, SweepCell, Optional[str], Any, int], None],
    emit_ready: Callable[[], None],
) -> None:
    """Fan ``pending`` out over a process pool, collecting in order.

    Falls back to serial execution for the cells still outstanding if
    the pool breaks (a worker died hard); drains gracefully on
    KeyboardInterrupt by cancelling everything not yet started.
    """
    executor = ProcessPoolExecutor(max_workers=min(nworkers, len(pending)))

    try:
        futures = {
            idx: executor.submit(_call, spec.worker, cell.params, mapping)
            for idx, cell, _key in pending
        }
        attempts = {idx: 1 for idx, _c, _k in pending}
        serial_rest: Optional[int] = None  # index into pending on pool break
        for pos, (idx, cell, key) in enumerate(pending):
            if serial_rest is not None:
                break
            while True:
                try:
                    payload = futures[idx].result(timeout=timeout_s)
                    store(idx, cell, key, payload, attempts[idx])
                    emit_ready()
                    break
                except FutureTimeout:
                    if attempts[idx] > retries:
                        raise SweepCellTimeoutError(
                            cell.experiment,
                            cell.params,
                            f"timed out after {timeout_s} s",
                            attempts=attempts[idx],
                        ) from None
                    futures[idx].cancel()
                    attempts[idx] += 1
                    futures[idx] = executor.submit(
                        _call, spec.worker, cell.params, mapping
                    )
                except BrokenProcessPool:
                    warnings.warn(
                        "sweep process pool broke; finishing the remaining "
                        "cells serially",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    serial_rest = pos
                    break
                except RETRYABLE_EXCEPTIONS as exc:
                    if attempts[idx] > retries:
                        raise SweepCellError(
                            cell.experiment,
                            cell.params,
                            repr(exc),
                            attempts=attempts[idx],
                        ) from exc
                    attempts[idx] += 1
                    futures[idx] = executor.submit(
                        _call, spec.worker, cell.params, mapping
                    )
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    raise SweepCellError(
                        cell.experiment,
                        cell.params,
                        repr(exc),
                        attempts=attempts[idx],
                    ) from exc
        if serial_rest is not None:
            for idx, cell, key in pending[serial_rest:]:
                payload, n_attempts = _run_serial(
                    spec, cell, retries, mapping
                )
                store(idx, cell, key, payload, n_attempts)
                emit_ready()
    except (KeyboardInterrupt, SystemExit):
        # Graceful drain: everything already computed is stored (and,
        # when caching, persisted); drop what hasn't started.
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
