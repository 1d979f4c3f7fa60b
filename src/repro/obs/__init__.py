"""Unified observability: structured events, metrics, spans, exporters.

One substrate replaces the scattered instrumentation that grew across
``repro.perf.counters``, ``repro.alps.tracing``, and ad-hoc CSV writers
(Gunther's resource-manager operations papers make the case: a
proportional-share controller is only trustworthy when its
entitlement-vs-consumption telemetry is first-class).  Three surfaces,
bound together by :class:`Observer`:

* :mod:`repro.obs.events` — a seed-deterministic, schema-versioned
  JSONL event log (quantum ticks, eligibility transitions, cycle
  boundaries, fault injections, kernel context switches) with a bounded
  ring buffer and streaming sinks;
* :mod:`repro.obs.registry` — counters, gauges, and fixed-bucket
  histograms, absorbing :class:`~repro.perf.counters.PerfCounters` and
  the :mod:`repro.metrics` aggregations;
* :mod:`repro.obs.spans` — hot-path cost spans for Table 1-style
  breakdowns.

Attach via ``build_controlled_workload(..., observer=Observer())``,
inspect live with ``python -m repro top``, and export with
``python -m repro obs export --format prometheus|jsonl|csv`` (see
docs/observability.md).  Observation is schedule-invisible: equal seeds
produce byte-identical schedules with or without an observer attached.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "CallbackSink": "repro.obs.events",
    "Counter": "repro.obs.registry",
    "EventLog": "repro.obs.events",
    "Gauge": "repro.obs.registry",
    "Histogram": "repro.obs.registry",
    "JsonlSink": "repro.obs.events",
    "MetricsRegistry": "repro.obs.registry",
    "NullSink": "repro.obs.events",
    "ObsEvent": "repro.obs.events",
    "Observer": "repro.obs.observer",
    "SCHEMA_VERSION": "repro.obs.events",
    "Sink": "repro.obs.events",
    "Span": "repro.obs.spans",
    "SpanRecorder": "repro.obs.spans",
    "SpanStats": "repro.obs.spans",
    "collect_plane": "repro.obs.bridge",
    "collect_workload": "repro.obs.bridge",
    "events_to_jsonl": "repro.obs.export",
    "metrics_to_csv": "repro.obs.export",
    "metrics_to_jsonl": "repro.obs.export",
    "metrics_to_prometheus": "repro.obs.export",
    "parse_events_jsonl": "repro.obs.export",
    "parse_metrics_csv": "repro.obs.export",
    "parse_metrics_jsonl": "repro.obs.export",
    "parse_prometheus_text": "repro.obs.export",
    "render_plane_frame": "repro.obs.top",
    "render_top_frame": "repro.obs.top",
    "restore_snapshot": "repro.obs.registry",
    "rows_to_markdown": "repro.obs.export",
    "run_plane_top": "repro.obs.top",
    "run_top": "repro.obs.top",
})
