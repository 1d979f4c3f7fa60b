"""Structured, schema-versioned observability events.

One :class:`ObsEvent` is a point-in-time fact about the run — a quantum
tick, an eligibility transition, a cycle boundary, a fault injection, a
kernel context switch — carried as a small JSON-safe record.  Events
are *seed-deterministic*: everything in them derives from virtual time
and simulation state, never from wall clocks, so equal seeds replay the
exact same event stream byte for byte.

The :class:`EventLog` keeps the most recent events in a bounded ring
buffer (old events fall off; :attr:`EventLog.emitted` keeps the true
total) and fans each event out to any attached streaming sinks.  The
ring holds each event as a plain ``(time_us, kind, fields)`` record;
the frozen :class:`ObsEvent` is built only when something reads the
log (iteration, :meth:`~EventLog.tail`, :meth:`~EventLog.of_kind`) or
a sink is attached.  With no sinks attached, an emit is one tuple and
one deque append — cheap enough to leave on, even for the kernel's
per-dispatch ``kernel.ctxsw``.

Well-known event kinds (see docs/observability.md for the full schema
reference):

===================  =====================================================
kind                 emitted by / meaning
===================  =====================================================
``quantum.tick``     ALPS agent, once per serviced quantum timer
``eligibility.stop``  subject transitioned eligible → ineligible
``eligibility.cont``  subject transitioned ineligible → eligible
``cycle.complete``   ALPS cycle boundary (Figure 3's ``tc`` wrapped)
``agent.stall``      agent overslept at least one quantum boundary
``kernel.ctxsw``     simulated kernel placed a process on a CPU
``signal.sent``      a signal reached the kernel (kill(2) succeeded)
``fault.*``          fault injector misbehavior (``fault.crash``, ...)
``experiment.progress``  run_for_cycles chunk boundary
===================  =====================================================
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import islice, starmap
from typing import Any, Iterable, Iterator, Mapping, Optional

#: Version stamp carried by every serialized event record.  Bump when a
#: field is renamed/removed or its meaning changes; adding new kinds or
#: new optional fields is backward compatible and needs no bump.
SCHEMA_VERSION = 1


@dataclass(slots=True, frozen=True)
class ObsEvent:
    """One structured event: virtual time, a kind, and flat JSON fields."""

    time_us: int
    kind: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Stable one-line JSON form (sorted keys, no whitespace)."""
        rec = {"v": SCHEMA_VERSION, "t": self.time_us, "kind": self.kind}
        if self.fields:
            rec["data"] = dict(sorted(self.fields.items()))
        return json.dumps(rec, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "ObsEvent":
        """Parse one JSONL line back into an event (round-trip inverse)."""
        rec = json.loads(line)
        version = rec.get("v")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported event schema version {version!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        return cls(
            time_us=int(rec["t"]),
            kind=str(rec["kind"]),
            fields=rec.get("data", {}),
        )


class Sink:
    """Streaming event consumer interface (duck-typed; subclass optional)."""

    def write(self, event: ObsEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class NullSink(Sink):
    """Discards every event — the default, zero-cost sink."""

    def write(self, event: ObsEvent) -> None:
        pass


class JsonlSink(Sink):
    """Streams each event as one JSON line to a writable text stream."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self.lines_written = 0

    def write(self, event: ObsEvent) -> None:
        self._stream.write(event.to_json() + "\n")
        self.lines_written += 1


class CallbackSink(Sink):
    """Invokes a callable per event (testing / ad-hoc pipelines)."""

    def __init__(self, fn) -> None:
        self._fn = fn

    def write(self, event: ObsEvent) -> None:
        self._fn(event)


class EventLog:
    """Bounded ring buffer of events, with streaming fan-out.

    ``capacity`` bounds memory for arbitrarily long runs: once full, the
    oldest events are dropped from the buffer (sinks, having already
    streamed them, lose nothing).  ``emitted`` counts every event ever
    emitted, so ``emitted - len(log)`` is the number rotated out.
    """

    __slots__ = ("_buf", "sinks", "emitted")

    def __init__(
        self, capacity: int = 65536, sinks: Iterable[Sink] = ()
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        #: ``(time_us, kind, fields)`` records, oldest first.
        self._buf: deque[tuple[int, str, Mapping[str, Any]]] = deque(
            maxlen=capacity
        )
        self.sinks: list[Sink] = list(sinks)
        self.emitted = 0

    @property
    def capacity(self) -> int:
        """Ring-buffer bound this log was created with."""
        return self._buf.maxlen or 0

    @property
    def dropped(self) -> int:
        """Events rotated out of the ring buffer so far."""
        return self.emitted - len(self._buf)

    def emit(self, time_us: int, kind: str, **fields: Any) -> None:
        """Record one event and stream it to every sink."""
        self.emitted += 1
        self._buf.append((time_us, kind, fields))
        if self.sinks:
            event = ObsEvent(time_us, kind, fields)
            for sink in self.sinks:
                sink.write(event)

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[ObsEvent]:
        return starmap(ObsEvent, self._buf)

    def tail(self, n: int) -> list[ObsEvent]:
        """The most recent ``n`` buffered events, oldest first."""
        if n <= 0:
            return []
        newest_first = list(islice(reversed(self._buf), n))
        newest_first.reverse()
        return list(starmap(ObsEvent, newest_first))

    def of_kind(self, kind: str) -> list[ObsEvent]:
        """All buffered events of one kind (or a ``prefix.*`` family)."""
        if kind.endswith(".*"):
            prefix = kind[:-1]
            return [ObsEvent(*r) for r in self._buf if r[1].startswith(prefix)]
        return [ObsEvent(*r) for r in self._buf if r[1] == kind]

    def last(self, kind: str) -> Optional[ObsEvent]:
        """The newest buffered event of one kind, or None."""
        for record in reversed(self._buf):
            if record[1] == kind:
                return ObsEvent(*record)
        return None

    def clear(self) -> None:
        """Drop the buffer (``emitted`` keeps counting from here)."""
        self._buf.clear()
