"""The sweep scheduler: ordering, caching, retry, timeout, degradation."""

from __future__ import annotations

import time
import warnings

import pytest

from repro.errors import SweepCellError, SweepCellTimeoutError
from repro.sweep import SweepCache, SweepCell, SweepSpec, run_sweep
from repro.sweep.cache import logical_key

CALLS: list[int] = []  # serial-mode workers run in-process
FLAKY_FAILURES: dict[int, int] = {}


def _double(x):  # module-level: picklable
    CALLS.append(x)
    return {"y": x * 2}


def _boom(x):
    if x == 3:
        raise ValueError("cell exploded")
    return {"y": x}


def _flaky(x):
    from repro.errors import TransientReadError

    remaining = FLAKY_FAILURES.get(x, 0)
    if remaining:
        FLAKY_FAILURES[x] = remaining - 1
        raise TransientReadError(f"transient #{remaining}")
    return {"y": x}


def _sleepy(x):
    time.sleep(x)
    return {"y": x}


def _mapping_worker(params):
    return {"y": params["x"] + 1}


def _cells(xs, experiment="test.double"):
    return [SweepCell(experiment, {"x": x}) for x in xs]


def _spec(xs, worker=_double, **kwargs):
    return SweepSpec(worker=worker, cells=_cells(xs), **kwargs)


def test_results_are_ordered_and_streamed(tmp_path):
    streamed = []
    outcome = run_sweep(
        _spec([3, 1, 2]), workers=1, on_result=streamed.append
    )
    assert outcome.values == [{"y": 6}, {"y": 2}, {"y": 4}]
    assert [r.cell.params["x"] for r in streamed] == [3, 1, 2]
    assert all(not r.cached and r.attempts == 1 for r in outcome.results)


def test_pooled_matches_serial_order():
    serial = run_sweep(_spec(list(range(8))), workers=1)
    pooled = run_sweep(_spec(list(range(8))), workers=4)
    assert serial.values == pooled.values


def test_cache_hits_short_circuit_the_worker(tmp_path):
    cache = SweepCache(tmp_path / "c")
    CALLS.clear()
    cold = run_sweep(_spec([1, 2, 3]), workers=1, cache=cache)
    assert CALLS == [1, 2, 3]
    assert (cold.stats.hits, cold.stats.misses, cold.stats.stores) == (0, 3, 3)

    warm = run_sweep(
        _spec([1, 2, 3]), workers=1, cache=SweepCache(tmp_path / "c")
    )
    assert CALLS == [1, 2, 3]  # workers never invoked on hits
    assert (warm.stats.hits, warm.stats.misses) == (3, 0)
    assert warm.values == cold.values
    assert all(r.cached and r.attempts == 0 for r in warm.results)
    assert warm.footer() == "[sweep: 3 cells, 3 cache hits, 0 misses, 1 worker(s)]"


def test_partial_hits_only_compute_the_misses(tmp_path):
    cache = SweepCache(tmp_path / "c")
    run_sweep(_spec([1, 2]), workers=1, cache=cache)
    CALLS.clear()
    outcome = run_sweep(
        _spec([1, 2, 3, 4]), workers=1, cache=SweepCache(tmp_path / "c")
    )
    assert CALLS == [3, 4]
    assert (outcome.stats.hits, outcome.stats.misses) == (2, 2)
    assert outcome.values == [{"y": 2}, {"y": 4}, {"y": 6}, {"y": 8}]


def test_uncacheable_spec_never_touches_the_cache(tmp_path):
    cache = SweepCache(tmp_path / "c")
    run_sweep(_spec([1, 2], cacheable=False), workers=1, cache=cache)
    again = run_sweep(_spec([1, 2], cacheable=False), workers=1, cache=cache)
    assert cache.stats.lookups == 0
    assert again.stats.misses == 2  # counted as computed, not looked up


def test_worker_exception_names_the_failing_cell():
    with pytest.raises(SweepCellError, match="cell exploded") as info:
        run_sweep(_spec([1, 2, 3, 4], worker=_boom), workers=1)
    assert info.value.experiment == "test.double"
    assert info.value.params == {"x": 3}


def test_transient_errors_are_retried():
    FLAKY_FAILURES.clear()
    FLAKY_FAILURES[2] = 1  # fails once, then succeeds
    outcome = run_sweep(_spec([1, 2], worker=_flaky), workers=1, retries=1)
    assert outcome.values == [{"y": 1}, {"y": 2}]
    assert outcome.results[1].attempts == 2

    FLAKY_FAILURES[2] = 5  # more failures than the retry budget
    with pytest.raises(SweepCellError, match="transient"):
        run_sweep(_spec([1, 2], worker=_flaky), workers=1, retries=1)


def test_cell_timeout_raises_after_retries():
    with pytest.raises(SweepCellTimeoutError, match="timed out"):
        run_sweep(
            _spec([2.0, 2.0], worker=_sleepy),
            workers=2,
            timeout_s=0.2,
            retries=0,
        )


def test_unpicklable_worker_degrades_to_serial():
    captured = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = run_sweep(
            SweepSpec(
                worker=lambda x: {"y": x},
                cells=_cells([1, 2, 3]),
            ),
            workers=4,
            on_result=captured.append,
        )
    assert outcome.values == [{"y": 1}, {"y": 2}, {"y": 3}]
    assert any("serially" in str(w.message) for w in caught)


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_named_params_is_passed_the_mapping(workers):
    # The older calling convention: one parameter, named ``params``,
    # serial and pooled alike.
    outcome = run_sweep(_spec([1, 2], worker=_mapping_worker), workers=workers)
    assert outcome.values == [{"y": 2}, {"y": 3}]


def test_code_change_invalidates_and_replaces(tmp_path, monkeypatch):
    # Simulate a code edit by varying the fingerprint the scheduler
    # computes: same logical config, different full key.
    import repro.sweep.scheduler as sched

    cache = SweepCache(tmp_path / "c")
    monkeypatch.setattr(sched, "code_fingerprint", lambda mods: "rev1")
    run_sweep(_spec([5]), workers=1, cache=cache)
    monkeypatch.setattr(sched, "code_fingerprint", lambda mods: "rev2")
    outcome = run_sweep(_spec([5]), workers=1, cache=cache)
    assert outcome.stats.misses == 1  # rev1 blob must not be served
    assert outcome.stats.invalidations == 1
    # Only one blob survives per logical configuration.
    logical = logical_key("test.double", {"x": 5})
    blobs = [
        p for p in (tmp_path / "c").rglob("*.json")
        if "index" not in p.parts and p.name != "stats.json"
    ]
    assert len(blobs) == 1
    assert (tmp_path / "c" / "index" / logical[:2] / f"{logical}.json").exists()


def test_corrupt_blob_is_a_miss_and_recomputed(tmp_path):
    cache = SweepCache(tmp_path / "c")
    outcome = run_sweep(_spec([7]), workers=1, cache=cache)
    key = outcome.results[0].key
    blob = tmp_path / "c" / key[:2] / f"{key}.json"
    blob.write_text("{not json")
    again = run_sweep(
        _spec([7]), workers=1, cache=SweepCache(tmp_path / "c")
    )
    assert again.stats.misses == 1
    assert again.values == [{"y": 14}]


def test_persistent_stats_accumulate_across_runs(tmp_path):
    from repro.sweep.cache import load_persistent_stats

    root = tmp_path / "c"
    run_sweep(_spec([1, 2]), workers=1, cache=SweepCache(root))
    run_sweep(_spec([1, 2]), workers=1, cache=SweepCache(root))
    lifetime = load_persistent_stats(root)
    assert lifetime.hits == 2
    assert lifetime.misses == 2
    assert lifetime.stores == 2


def test_attach_sweep_metrics_exports_counters(tmp_path):
    from repro.obs.registry import MetricsRegistry
    from repro.sweep.cache import attach_sweep_metrics

    root = tmp_path / "c"
    run_sweep(_spec([1]), workers=1, cache=SweepCache(root))
    registry = MetricsRegistry()
    attach_sweep_metrics(registry, root=root)
    assert registry.get("repro_sweep_cache_misses_lifetime").value == 1
    assert registry.get("repro_sweep_cache_stores_lifetime").value == 1
