"""4.4BSD-style run queues.

BSD hashes the 0..127 priority space into 32 FIFO queues of 4 levels
each (``qindex = priority >> 2``).  Selection scans for the lowest
non-empty queue and takes its head; insertion appends at the tail, which
yields round-robin behaviour among processes whose priorities fall in
the same bucket.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import KernelError
from repro.kernel.process import Process

#: Number of priority levels hashed into one queue (BSD's PPQ).
PPQ = 4
#: Number of queues covering priorities 0..127.
NQS = 32


class RunQueue:
    """Priority-bucketed FIFO ready queues with an occupancy bitmap."""

    def __init__(self) -> None:
        self._queues: list[deque[Process]] = [deque() for _ in range(NQS)]
        self._nonempty: int = 0  # bitmap of occupied queues
        self._count = 0

    def __len__(self) -> int:
        """Number of enqueued processes."""
        return self._count

    @staticmethod
    def _qindex(priority: int) -> int:
        if priority < 0 or priority >= NQS * PPQ:
            raise KernelError(f"priority {priority} out of range 0..{NQS * PPQ - 1}")
        return priority >> 2

    def insert(self, proc: Process) -> None:
        """Append ``proc`` to the tail of its priority bucket."""
        priority = proc.priority  # inlined _qindex: insert is hot
        if priority < 0 or priority >= NQS * PPQ:
            raise KernelError(f"priority {priority} out of range 0..{NQS * PPQ - 1}")
        qi = priority >> 2
        self._queues[qi].append(proc)
        self._nonempty |= 1 << qi
        self._count += 1

    def insert_head(self, proc: Process) -> None:
        """Prepend ``proc`` (used when a preempted process keeps its turn)."""
        qi = self._qindex(proc.priority)
        self._queues[qi].appendleft(proc)
        self._nonempty |= 1 << qi
        self._count += 1

    def remove(self, proc: Process) -> None:
        """Remove ``proc`` from whichever bucket holds it."""
        qi = self._qindex(proc.priority)
        queue = self._queues[qi]
        try:
            queue.remove(proc)
        except ValueError:
            # Priority may have been recomputed since insertion; fall back
            # to a full scan so callers need not track the stale value.
            for other_qi in range(NQS):
                if other_qi == qi:
                    continue
                other = self._queues[other_qi]
                try:
                    other.remove(proc)
                except ValueError:
                    continue
                if not other:
                    self._nonempty &= ~(1 << other_qi)
                self._count -= 1
                return
            raise KernelError(f"pid {proc.pid} not on any run queue") from None
        if not queue:
            self._nonempty &= ~(1 << qi)
        self._count -= 1

    def best_priority(self) -> Optional[int]:
        """Priority bucket floor of the best queued process, or None."""
        if not self._nonempty:
            return None
        qi = (self._nonempty & -self._nonempty).bit_length() - 1
        return self._queues[qi][0].priority

    def pop_best(self) -> Optional[Process]:
        """Remove and return the head of the lowest non-empty queue."""
        if not self._nonempty:
            return None
        qi = (self._nonempty & -self._nonempty).bit_length() - 1
        queue = self._queues[qi]
        proc = queue.popleft()
        if not queue:
            self._nonempty &= ~(1 << qi)
        self._count -= 1
        return proc

    def __contains__(self, proc: Process) -> bool:
        return any(proc in q for q in self._queues)
