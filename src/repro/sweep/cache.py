"""Content-addressed result cache for sweep cells.

A cell's cache key is the SHA-256 of its canonicalized configuration —
experiment id plus every parameter that shapes the result (model, N,
quantum, cycles, seed, fault plan, kernel/ALPS config) — combined with
the :mod:`repro.sweep.fingerprint` of the code it runs.  Equal
configurations therefore hash identically across processes and dict
orderings, and *any* change to a parameter or to library source moves
the key, so a stale result can never be served.

Results are stored as JSON blobs under ``~/.cache/repro-sweep``
(override with the ``REPRO_SWEEP_CACHE`` environment variable), sharded
by key prefix.  A per-configuration index maps the fingerprint-free
"logical" key to the current full key; storing a result whose logical
key already points at a different blob counts as an *invalidation* and
deletes the superseded blob, so the cache does not accumulate one copy
per historical code revision.

Hit/miss/store/invalidation counters land in a
:class:`~repro.obs.registry.MetricsRegistry` (the module-global
:data:`SWEEP_METRICS` by default); ``repro obs export`` folds both the
in-process counters and the cache directory's persistent totals into
its output via :func:`attach_sweep_metrics`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.obs.registry import MetricsRegistry

#: Bump when the blob layout changes; part of every key.
CACHE_SCHEMA_VERSION = 1

#: Default in-process registry receiving cache counters.
SWEEP_METRICS = MetricsRegistry()

_STATS_FILE = "stats.json"
_STATS_KEYS = ("hits", "misses", "stores", "invalidations")


def default_cache_root() -> Path:
    """Cache directory: ``$REPRO_SWEEP_CACHE`` or ``~/.cache/repro-sweep``."""
    env = os.environ.get("REPRO_SWEEP_CACHE")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-sweep"


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------
def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-safe form with a stable representation.

    Handles the types sweep configurations are made of: dataclasses
    (tagged with their qualified class name, so two classes with equal
    fields do not collide), enums, numpy scalars, tuples/lists/sets,
    and nested mappings.  Mapping keys are stringified; ordering is
    irrelevant because :func:`canonical_json` sorts keys.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, enum.Enum):
        return {
            "__enum__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "name": obj.name,
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "fields": {
                f.name: canonicalize(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Mapping):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonicalize(v) for v in obj)
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    # numpy scalars (and anything else exposing .item()) — convert to
    # the exact Python equivalent rather than stringifying.
    item = getattr(obj, "item", None)
    if callable(item):
        return canonicalize(item())
    raise TypeError(
        f"cannot canonicalize {type(obj).__qualname__!r} for a sweep cache key"
    )


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact floats."""
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def logical_key(experiment: str, params: Mapping[str, Any]) -> str:
    """Fingerprint-free key: identifies a configuration across code
    revisions (used to count invalidations and drop superseded blobs)."""
    return _digest(
        canonical_json(
            {"schema": CACHE_SCHEMA_VERSION, "experiment": experiment,
             "params": params}
        )
    )


def cache_key(
    experiment: str, params: Mapping[str, Any], fingerprint: str
) -> str:
    """Full content-addressed key: configuration + code fingerprint."""
    return _digest(
        canonical_json(
            {"schema": CACHE_SCHEMA_VERSION, "experiment": experiment,
             "params": params, "code": fingerprint}
        )
    )


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class CacheStats:
    """Counters of one cache instance (or one sweep's share of them)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict[str, int]:
        return {k: getattr(self, k) for k in _STATS_KEYS}

    def add(self, other: "CacheStats") -> None:
        for k in _STATS_KEYS:
            setattr(self, k, getattr(self, k) + getattr(other, k))


def load_persistent_stats(root: Optional[Path | str] = None) -> CacheStats:
    """Cumulative lifetime counters persisted in the cache directory."""
    path = Path(root) if root is not None else default_cache_root()
    try:
        raw = json.loads((path / _STATS_FILE).read_text())
    except (OSError, ValueError):
        return CacheStats()
    return CacheStats(**{k: int(raw.get(k, 0)) for k in _STATS_KEYS})


def attach_sweep_metrics(
    registry: MetricsRegistry, *, root: Optional[Path | str] = None
) -> None:
    """Export sweep-cache counters into ``registry``.

    In-process counters (from :data:`SWEEP_METRICS`) become
    ``repro_sweep_cache_*_total`` counters; the cache directory's
    persistent totals become ``repro_sweep_cache_*_lifetime`` gauges,
    so ``repro obs export`` shows cache behavior even when the sweep
    ran in an earlier process.
    """
    for name in _STATS_KEYS:
        counter = SWEEP_METRICS.get(f"repro_sweep_cache_{name}_total")
        value = counter.value if counter is not None else 0
        registry.counter(f"repro_sweep_cache_{name}_total").inc(value)
    lifetime = load_persistent_stats(root)
    for name in _STATS_KEYS:
        registry.gauge(f"repro_sweep_cache_{name}_lifetime").set(
            getattr(lifetime, name)
        )


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------
class SweepCache:
    """Content-addressed JSON blob store for sweep cell results.

    All I/O happens in the coordinating process (workers never touch
    the cache), so a run needs no locking; cross-run writes are atomic
    (temp file + ``os.replace``).  A corrupt or unreadable blob is
    treated as a miss and removed.
    """

    def __init__(
        self,
        root: Optional[Path | str] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.registry = SWEEP_METRICS if registry is None else registry
        self.stats = CacheStats()
        #: Deltas not yet merged into the on-disk stats file.
        self._unflushed = CacheStats()

    # -- paths -------------------------------------------------------
    def _blob_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _index_path(self, logical: str) -> Path:
        return self.root / "index" / logical[:2] / f"{logical}.json"

    # -- counting ----------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + n)
        setattr(self._unflushed, name, getattr(self._unflushed, name) + n)
        self.registry.counter(f"repro_sweep_cache_{name}_total").inc(n)

    # -- blob I/O ----------------------------------------------------
    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get(self, key: str) -> tuple[bool, Any]:
        """Look up ``key``; returns ``(hit, payload)``."""
        path = self._blob_path(key)
        try:
            blob = json.loads(path.read_text())
            payload = blob["payload"]
        except (OSError, ValueError, KeyError, TypeError):
            if path.exists():  # unreadable blob: drop it, recompute
                try:
                    path.unlink()
                except OSError:
                    pass
            self._count("misses")
            return False, None
        self._count("hits")
        return True, payload

    def put(
        self,
        key: str,
        payload: Any,
        *,
        experiment: str,
        params: Mapping[str, Any],
        fingerprint: str,
    ) -> None:
        """Store ``payload`` under ``key`` and maintain the logical index."""
        blob = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "experiment": experiment,
            "params": canonicalize(params),
            "fingerprint": fingerprint,
            "created": time.time(),
            "payload": payload,
        }
        # Unsorted: a payload's key order is a dict's iteration order,
        # which a hit must reproduce.
        self._write_atomic(self._blob_path(key), json.dumps(blob))
        self._count("stores")

        logical = logical_key(experiment, params)
        index_path = self._index_path(logical)
        try:
            previous = json.loads(index_path.read_text())["key"]
        except (OSError, ValueError, KeyError):
            previous = None
        if previous is not None and previous != key:
            # Same configuration, different code fingerprint: the old
            # result is invalidated, not merely shadowed.
            self._count("invalidations")
            try:
                self._blob_path(previous).unlink()
            except OSError:
                pass
        if previous != key:
            self._write_atomic(index_path, json.dumps({"key": key}))

    # -- stats persistence ------------------------------------------
    def flush_stats(self) -> None:
        """Merge counters accumulated since the last flush into
        ``<root>/stats.json`` (cumulative across runs)."""
        if not any(getattr(self._unflushed, k) for k in _STATS_KEYS):
            return
        total = load_persistent_stats(self.root)
        total.add(self._unflushed)
        self._write_atomic(
            self.root / _STATS_FILE, json.dumps(total.as_dict(), sort_keys=True)
        )
        self._unflushed = CacheStats()


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "SWEEP_METRICS",
    "SweepCache",
    "attach_sweep_metrics",
    "cache_key",
    "canonical_json",
    "canonicalize",
    "default_cache_root",
    "load_persistent_stats",
    "logical_key",
]
