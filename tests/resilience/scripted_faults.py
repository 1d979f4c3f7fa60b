"""A :class:`~repro.resilience.journal.WriteFaults` hook whose fates a
test chooses, append by append."""

from __future__ import annotations

from typing import Callable, Optional

from repro.resilience.journal import LOST, TORN, WriteFaults

#: The fault rates of a scripted hook, and the draw it reads as each fate.
LOST_P = TORN_P = 0.25
DRAW = {None: 0.9, LOST: 0.1, TORN: 0.3}


class ScriptedStream:
    """An RNG stand-in: each append's fate is ``fate()`` (None for
    whole, :data:`LOST` or :data:`TORN`), and a torn write of ``size``
    bytes keeps ``keep(size)`` of them."""

    def __init__(
        self,
        fate: Callable[[], Optional[str]],
        keep: Callable[[int], int] = lambda size: 1,
    ) -> None:
        self._fate = fate
        self._keep = keep

    def random(self) -> float:
        return DRAW[self._fate()]

    def integers(self, low: int, high: int) -> int:
        # WriteFaults keeps 1 + integers(0, size - 1) bytes.
        return self._keep(high + 1) - 1


def scripted_faults(
    fates,
    keep: Callable[[int], int] = lambda size: 1,
    note: Callable[[Optional[int], int], None] = lambda kept, size: None,
) -> WriteFaults:
    """A hook meeting each append with the next of ``fates`` (a
    callable, or an iterable that is followed by whole appends)."""
    if not callable(fates):
        remaining = iter(fates)
        fates = lambda: next(remaining, None)
    return WriteFaults(LOST_P, TORN_P, ScriptedStream(fates, keep), note)
