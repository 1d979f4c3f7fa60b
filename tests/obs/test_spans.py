"""Span recorder: aggregates, breakdowns, and registry export."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanRecorder


def test_record_and_stats():
    rec = SpanRecorder()
    rec.record("measure", 10.0, start_us=100)
    rec.record("measure", 30.0, start_us=200)
    rec.record("signal", 2.0)
    stats = rec.stats("measure")
    assert stats.count == 2
    assert stats.total_us == pytest.approx(40.0)
    assert stats.min_us == 10.0 and stats.max_us == 30.0
    assert stats.mean_us == pytest.approx(20.0)
    assert rec.stats("missing") is None
    assert rec.recorded == 3


def test_breakdown_sorted_by_total_desc():
    rec = SpanRecorder()
    rec.record("small", 1.0)
    rec.record("big", 100.0)
    rec.record("big", 100.0)
    assert [s.name for s in rec.breakdown()] == ["big", "small"]
    text = rec.format_breakdown()
    assert "big" in text and "share" in text
    assert SpanRecorder().format_breakdown() == "(no spans recorded)"


def test_recent_is_bounded_and_ordered():
    rec = SpanRecorder(keep_recent=3)
    for i in range(5):
        rec.record("s", float(i), start_us=i)
    assert [s.duration_us for s in rec.recent(10)] == [2.0, 3.0, 4.0]
    assert [s.duration_us for s in rec.recent(2)] == [3.0, 4.0]
    # No spans for a count below one, as EventLog.tail.
    assert rec.recent(0) == [] and rec.recent(-2) == []


def test_measure_records_wall_time():
    rec = SpanRecorder()
    with rec.measure("host_block"):
        pass
    stats = rec.stats("host_block")
    assert stats.count == 1
    assert stats.total_us >= 0.0


def test_to_registry_exports_labelled_span_metrics():
    rec = SpanRecorder()
    rec.record("measure", 10.0)
    rec.record("measure", 20.0)
    reg = MetricsRegistry()
    rec.to_registry(reg)
    assert reg.get("span_count", {"span": "measure"}).value == 2
    assert reg.get("span_total_us", {"span": "measure"}).value == 30.0
    assert reg.get("span_mean_us", {"span": "measure"}).value == 15.0


def test_clear_resets_aggregates():
    rec = SpanRecorder()
    rec.record("x", 1.0)
    rec.clear()
    assert rec.stats("x") is None and rec.recent() == []
