"""The observer's output on the stacked Table 2 cells, pinned byte for byte.

The ring holds plain records and builds :class:`~repro.obs.events.ObsEvent`
and :class:`~repro.obs.spans.Span` objects only on read, so these
digests pin what every reader sees: the JSONL export, the span
breakdown and recent spans, and the events handed out by iteration,
``tail``, ``of_kind`` and a sink, on the seed-0 Table 2 cells with
every optional layer attached (as the ledger's ``table2_stacked``
attaches them).  The digests were computed before the storage change.
"""

from __future__ import annotations

import hashlib

from repro.alps.config import AlpsConfig
from repro.faults.plan import FaultPlan
from repro.obs import CallbackSink, ObsEvent, Observer, Span, events_to_jsonl
from repro.overload import OverloadGuard
from repro.perf.differential import TABLE2_SIZES
from repro.resilience.journal import MemoryJournal
from repro.resilience.supervisor import RestartPolicy, Supervisor
from repro.sharetree import ShareTree
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.shares import DISTRIBUTIONS, workload_shares

QUANTUM_US = ms(10)
HORIZON_US = sec(2)

#: Ring small enough that the 2-second n = 20 cells rotate it.
SMALL_RING = 256

#: sha256 of the JSONL export, ``repr(breakdown())`` and
#: ``repr(recent())`` of every cell, in matrix order.
OUTPUT_DIGEST = "7e7f91072c6d2036ad9f3afbcdda5240a5227d26d8e77249c56bd18ff8e7d255"

#: sha256 of the ``repr`` of the events a reader is handed: iteration,
#: ``tail(64)``, ``of_kind`` of one kind and of a family, and what a
#: sink saw, on a ring of :data:`SMALL_RING`.
READER_DIGEST = "dafd15836f6b4fcc6f6d5aaf2061f22bf598c5d8109b8e35c354869c1d36d034"


def stacked_observer(shares, *, capacity: int = 65536, sinks=()) -> Observer:
    """Run one seed-0 Table 2 cell with every optional layer attached."""
    observer = Observer(capacity=capacity, sinks=sinks)
    cw = build_controlled_workload(
        shares,
        AlpsConfig(quantum_us=QUANTUM_US),
        seed=0,
        observer=observer,
        journal=MemoryJournal(),
        supervisor=Supervisor(RestartPolicy(), quantum_us=QUANTUM_US),
        overload=OverloadGuard(),
        sharetree=ShareTree.flat(shares),
        fault_plan=FaultPlan(),
    )
    cw.engine.run_until(HORIZON_US)
    return observer


def matrix():
    return [workload_shares(model, n) for model in DISTRIBUTIONS for n in TABLE2_SIZES]


def output_digest() -> str:
    h = hashlib.sha256()
    for shares in matrix():
        observer = stacked_observer(shares)
        h.update(events_to_jsonl(observer.events).encode())
        h.update(repr(observer.spans.breakdown()).encode())
        h.update(repr(observer.spans.recent()).encode())
    return h.hexdigest()


def reader_digest() -> str:
    h = hashlib.sha256()
    for shares in matrix():
        seen: list[ObsEvent] = []
        log = stacked_observer(
            shares, capacity=SMALL_RING, sinks=(CallbackSink(seen.append),)
        ).events
        for events in (
            list(log),
            log.tail(64),
            log.of_kind("cycle.complete"),
            log.of_kind("eligibility.*"),
            seen,
        ):
            h.update(repr(events).encode())
    return h.hexdigest()


def test_stacked_cells_export_the_same_bytes():
    assert output_digest() == OUTPUT_DIGEST


def test_readers_and_sinks_are_handed_the_same_events():
    assert reader_digest() == READER_DIGEST


def test_reads_build_events_and_spans_and_sinks_see_every_emit():
    shares = workload_shares(DISTRIBUTIONS[-1], 20)
    seen: list[ObsEvent] = []
    observer = stacked_observer(
        shares, capacity=SMALL_RING, sinks=(CallbackSink(seen.append),)
    )
    log = observer.events
    assert log.emitted == len(seen) > SMALL_RING == len(log)
    events = list(log)
    assert all(type(e) is ObsEvent for e in events + seen)
    assert events == seen[-SMALL_RING:]
    assert log.tail(64) == events[-64:]
    assert log.tail(10 * SMALL_RING) == events
    assert log.of_kind("eligibility.*") == [
        e for e in events if e.kind.startswith("eligibility.")
    ]
    assert observer.spans.recent(5) == observer.spans.recent()[-5:]
    assert all(type(s) is Span for s in observer.spans.recent())
