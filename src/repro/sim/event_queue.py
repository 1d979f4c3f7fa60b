"""Event calendar: a stable, cancellable binary-heap priority queue.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
makes ordering *stable*: two events scheduled for the same time and
priority fire in the order they were scheduled, which keeps the simulation
deterministic.  Cancellation is lazy, the standard O(log n) approach:
cancelled entries stay in the heap and are skipped on pop, until they
outnumber the live entries and the heap is compacted.  So a run that
cancels most of what it schedules (kernel callouts, re-armed timers)
keeps the heap near its live size.

Performance notes
-----------------
Heap entries are plain ``(time, priority, seq, event)`` tuples rather
than wrapper objects: ``seq`` is unique, so tuple comparison resolves in
C without ever comparing the trailing :class:`Event`, and every sift
during push/pop avoids a Python-level ``__lt__`` call.  The engine's hot
loop uses :meth:`EventQueue.pop_ready`, which fuses the peek + pop pair
into a single pass over the cancelled prefix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim import fastloop as _fastloop

EventCallback = Callable[["Event"], None]

#: Heaps at most this long are never compacted (asyncio's threshold).
COMPACT_MIN = 64


@dataclass(slots=True)
class Event:
    """A scheduled occurrence in virtual time.

    Attributes:
        time: firing time in integer microseconds.
        priority: tie-break rank for events at the same time (lower fires
            first).  Kernel-internal events use low values so that, e.g.,
            a timer expiry is processed before same-instant user activity.
        seq: global scheduling sequence number (stable tie break).
        callback: function invoked with the event when it fires.
        payload: arbitrary data for the callback.
        tag: short human-readable label used by tracing and debugging.
    """

    time: int
    priority: int
    seq: int
    callback: EventCallback
    payload: Any = None
    tag: str = ""
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)

    def sort_key(self) -> tuple[int, int, int]:
        return (self.time, self.priority, self.seq)


class EventHandle:
    """Opaque handle returned by :meth:`EventQueue.schedule`.

    Holding a handle allows the scheduler of an event to cancel it later
    (e.g. a kernel callout that is no longer needed).
    """

    __slots__ = ("_event", "_queue")

    def __init__(self, event: Event, queue: "EventQueue") -> None:
        self._event = event
        self._queue = queue

    @property
    def time(self) -> int:
        """Scheduled firing time of the underlying event."""
        return self._event.time

    @property
    def active(self) -> bool:
        """True while the event is pending (not fired, not cancelled)."""
        return not self._event.cancelled and not self._event.fired

    def cancel(self) -> None:
        """Cancel the event.  Cancelling twice (or after firing) is harmless.

        Once cancelled entries outnumber the live ones in a heap of more
        than :data:`COMPACT_MIN` entries, the heap is rebuilt without
        them, in place (a run loop may hold the list).  Keys are unique,
        so the pop order cannot change.
        """
        event = self._event
        if not event.cancelled and not event.fired:
            event.cancelled = True
            queue = self._queue
            queue._live -= 1
            heap = queue._heap
            if len(heap) > COMPACT_MIN and len(heap) > 2 * queue._live:
                heap[:] = [entry for entry in heap if not entry[3].cancelled]
                heapq.heapify(heap)


class EventQueue:
    """Binary-heap event calendar with stable ordering and lazy deletion."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        # Entries are (time, priority, seq, event); seq is unique so
        # comparisons never reach the Event object.
        self._heap: list[tuple[int, int, int, Event]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events."""
        return self._live

    def schedule(
        self,
        time: int,
        callback: EventCallback,
        priority: int = 0,
        payload: Any = None,
        tag: str = "",
    ) -> EventHandle:
        """Insert an event and return a cancellable handle.

        ``priority``/``payload``/``tag`` accept positional calls too:
        the kernel's burst/callout arming is hot enough that keyword
        binding shows up in profiles.
        """
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time}")
        self._seq += 1
        seq = self._seq
        event = Event(time, priority, seq, callback, payload, tag)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return EventHandle(event, self)

    def peek_time(self) -> Optional[int]:
        """Firing time of the next pending event, or None if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def pop(self) -> Optional[Event]:
        """Remove and return the next pending event, or None if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        event = heapq.heappop(heap)[3]
        self._live -= 1
        event.fired = True
        return event

    def pop_ready(self, until: int) -> Optional[Event]:
        """Pop the next pending event if it fires at or before ``until``.

        Fuses ``peek_time`` + ``pop`` into one cancelled-prefix scan —
        the engine run loop's fast path.  Returns None when the queue is
        empty or the next event fires after ``until``.

        The body lives in :mod:`repro.sim.fastloop` (optionally
        compiled); the engine binds the module function directly, so
        this method exists for API compatibility and direct callers.
        """
        return _fastloop.pop_ready(self, until)

    # ------------------------------------------------------------------
    # Fused same-instant stepping (the batch backend's run loop)
    # ------------------------------------------------------------------
    # The engine's fused mode drains every pending event that shares the
    # earliest timestamp in one heap pass, then dispatches them from a
    # flat list.  The contract that keeps golden traces byte-identical:
    # batch entries keep their full ``(time, priority, seq)`` keys, stay
    # cancellable until the moment they are individually marked fired,
    # and the engine compares the heap head's key against the next batch
    # entry before every dispatch, pushing the remainder back whenever a
    # callback scheduled something that must interleave.  Dispatch order
    # is therefore *provably* the heap order — the fusion only removes
    # sift work, never reorders.

    def pop_time_batch(
        self, until: int
    ) -> Optional[list[tuple[int, int, int, Event]]]:
        """Remove and return all pending entries at the earliest time.

        Returns None when the queue is empty or the earliest pending
        event fires after ``until``.  The returned entries are *not*
        marked fired and still count as live: the caller dispatches them
        one by one via :meth:`mark_fired` (so late cancellation keeps
        working) and returns any undispatched tail with
        :meth:`push_back`.

        The body lives in :mod:`repro.sim.fastloop` (optionally
        compiled); the fused engine loop calls the module function
        directly.
        """
        return _fastloop.pop_time_batch(self, until)

    def peek_key(self) -> Optional[tuple[int, int, int]]:
        """``(time, priority, seq)`` of the next pending event, or None."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        head = heap[0]
        return (head[0], head[1], head[2])

    def mark_fired(self, event: Event) -> None:
        """Commit one batch-popped event as dispatched."""
        event.fired = True
        self._live -= 1

    def push_back(self, entries: list[tuple[int, int, int, Event]]) -> None:
        """Reinsert undispatched batch entries (original keys intact)."""
        _fastloop.push_back(self, entries)

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
        self._live = 0
