"""A reference loop that tells how fast this host is running right now.

The box the ledger is judged on is shared, and its speed moves by a
factor of up to 1.5 in spells that last from under a second to a minute.
The short ones a median over repeats removes.  The long ones it cannot:
ten contract-form runs of one commit, 15 s each, gave per-run medians of
raw wall time that spread 8-12 % (IQR / median) on five workloads and
47 % on the sixth, where the last three runs fell into one 45 s spell;
the builder's contract refuses a benchmark whose spread exceeds 25 %.
CPU time reads the same as wall time here (the spells are a slower CPU,
not preemption), so it is no way out.

So every host time the ledger reports is *at reference speed*: a fixed
pure-Python loop — heap pushes and pops, small objects, dict stores, the
simulator's own diet — is timed immediately before and after the
measured call, and the call's wall time is scaled by
``REF_NOMINAL_S / reading``.  The loop imports nothing from ``repro``, so
no change to the code under test can move it; only the host can.  All
timings go through :func:`timed` — timed repeats, set-ups, the traced
run's untraced twin and the micro suite — so they share one scale, and
the raw seconds of every gated time are recorded beside it.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Any, Callable, NamedTuple

#: A middling :func:`reference` reading on the 2-core builder box (13-25 ms
#: were seen), so that seconds at reference speed are close to raw seconds
#: there.  A constant: scaled seconds compare across runs and hosts.
REF_NOMINAL_S = 0.018


class _Node:
    __slots__ = ("time", "key", "hits")

    def __init__(self, time: int, key: int) -> None:
        self.time = time
        self.key = key
        self.hits = 0


def reference(n: int = 30_000) -> int:
    """A fixed slice of event-queue-like work."""
    heap: list = []
    table: dict = {}
    total = 0
    push, pop = heapq.heappush, heapq.heappop
    for i in range(n):
        node = _Node(i * 7 % 1013, i)
        push(heap, (node.time, i, node))
        table[i & 255] = node
        if i & 3 == 3:
            when, _, popped = pop(heap)
            popped.hits += 1
            total += when + table[i & 255].key
    return total


def sample(rounds: int, *, collect: bool = True) -> float:
    """Best of ``rounds`` reference timings, with the collector held off.

    The loop allocates; with the collector on, how long it takes would
    depend on how much garbage the caller's heap holds, not on the host.
    ``collect=False`` skips the full collection first, for the reading
    after a measured call, whose garbage is not this function's to free.
    """
    was_enabled = gc.isenabled()
    if collect:
        gc.collect()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


class Timed(NamedTuple):
    seconds: float  # at reference speed
    raw_seconds: float
    result: Any

    @property
    def factor(self) -> float:
        """Multiply a raw time taken inside the call by this."""
        return self.seconds / self.raw_seconds


def timed(fn: Callable[[], Any], rounds: int = 3) -> Timed:
    """Call ``fn`` once between two readings; the readings are not timed.

    The first reading collects garbage, so every call starts from the
    same heap state.
    """
    before = sample(rounds)
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    after = sample(rounds, collect=False)
    return Timed(raw * REF_NOMINAL_S / ((before + after) / 2), raw, result)
