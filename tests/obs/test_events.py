"""Event records, the ring buffer, and streaming sinks."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.events import (
    SCHEMA_VERSION,
    CallbackSink,
    EventLog,
    JsonlSink,
    NullSink,
    ObsEvent,
)


def test_event_json_round_trip():
    ev = ObsEvent(12345, "quantum.tick", {"count": 7, "due": 3, "pids": 5})
    back = ObsEvent.from_json(ev.to_json())
    assert back.time_us == ev.time_us
    assert back.kind == ev.kind
    assert dict(back.fields) == dict(ev.fields)


def test_event_json_is_stable_and_versioned():
    a = ObsEvent(1, "cycle.complete", {"b": 2, "a": 1})
    b = ObsEvent(1, "cycle.complete", {"a": 1, "b": 2})
    assert a.to_json() == b.to_json()  # field order must not leak
    rec = json.loads(a.to_json())
    assert rec["v"] == SCHEMA_VERSION
    assert rec["t"] == 1 and rec["kind"] == "cycle.complete"


def test_fieldless_event_omits_data_key():
    rec = json.loads(ObsEvent(9, "agent.stall").to_json())
    assert "data" not in rec
    assert ObsEvent.from_json(json.dumps(rec)).fields == {}


def test_from_json_rejects_other_schema_versions():
    line = json.dumps({"v": SCHEMA_VERSION + 1, "t": 0, "kind": "x"})
    with pytest.raises(ValueError, match="schema version"):
        ObsEvent.from_json(line)


def test_ring_buffer_bounds_memory_and_counts_drops():
    log = EventLog(capacity=4)
    for i in range(10):
        log.emit(i, "k", i=i)
    assert len(log) == 4
    assert log.emitted == 10
    assert log.dropped == 6
    assert [e.time_us for e in log.tail(100)] == [6, 7, 8, 9]
    assert [e.time_us for e in log.tail(2)] == [8, 9]
    assert log.tail(0) == []


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        EventLog(capacity=0)


def test_of_kind_exact_and_family_match():
    log = EventLog()
    log.emit(0, "fault.crash")
    log.emit(1, "fault.stall")
    log.emit(2, "cycle.complete")
    assert [e.kind for e in log.of_kind("fault.crash")] == ["fault.crash"]
    assert [e.kind for e in log.of_kind("fault.*")] == [
        "fault.crash",
        "fault.stall",
    ]
    assert log.of_kind("nope.*") == []


def test_sinks_see_every_event_even_past_ring_capacity():
    stream = io.StringIO()
    seen: list[ObsEvent] = []
    log = EventLog(
        capacity=2,
        sinks=(JsonlSink(stream), CallbackSink(seen.append), NullSink()),
    )
    for i in range(5):
        log.emit(i, "k")
    assert len(log) == 2  # ring rotated
    lines = stream.getvalue().splitlines()
    assert len(lines) == 5  # but the sink streamed all of them
    assert [e.time_us for e in seen] == [0, 1, 2, 3, 4]
    assert all(json.loads(line)["kind"] == "k" for line in lines)


def test_clear_keeps_the_emitted_total():
    log = EventLog()
    log.emit(0, "k")
    log.clear()
    assert len(log) == 0 and log.emitted == 1 and log.dropped == 1


def test_last_is_the_newest_buffered_event_of_a_kind():
    log = EventLog(capacity=3)
    for i, kind in enumerate(["a", "b", "a", "b", "b"]):
        log.emit(i, kind, i=i)
    assert log.last("a") == ObsEvent(2, "a", {"i": 2})
    assert log.last("b") == log.tail(1)[0]
    assert log.last("c") is None
