"""READ-PROGRESS for one quantum (Figure 3), written once for both drivers.

:func:`measure_due` folds the progress reads of the subjects
:meth:`~repro.alps.algorithm.AlpsCore.begin_quantum` asked for into the
``{sid: (consumed_us, blocked)}`` map ``complete_quantum`` takes.  The
simulated :class:`~repro.alps.agent.AlpsAgent` and the real-Linux
:class:`~repro.hostos.controller.HostAlps` both call it, each supplying
only how one pid is read, so the two cannot measure contention
differently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.errors import NoSuchProcessError, TransientReadError
from repro.resilience.journal import drain_debt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alps.algorithm import AlpsCore


def measure_due(
    due: Sequence[tuple[int, Sequence[int]]],
    core: "AlpsCore",
    *,
    read: Callable[[int], int],
    retry: Callable[[int], Optional[int]],
    is_blocked: Callable[[int], bool],
    dead: Callable[[int, int], None],
    last_read: dict[int, int],
    cumulative: dict[int, int],
    debt: dict[int, int],
    track_io: bool,
) -> tuple[dict[int, tuple[int, bool]], int]:
    """Measure the due ``(sid, pids)``; returns the measurements and how
    many CPU counters ran backwards (each charged 0, never negative).

    ``read(pid)`` returns CPU µs or raises :class:`NoSuchProcessError`
    (dead, reported to ``dead(sid, pid)`` in walk order) or
    :class:`TransientReadError`, after which ``retry(pid)`` reads again,
    raises, or returns None: no reading this quantum, the baseline kept
    so the next read charges the whole interval.

    A subject the core no longer holds is skipped unread, and one a
    ``dead`` report took out of the core is not measured.  A subject is
    blocked iff every live pid is (the vote stops at the first runnable
    one; ``is_blocked`` only inspects, so skipping calls is
    schedule-invisible), never with ``track_io`` off — except that a
    subject with no pid when its measurement starts is charged as
    blocked (Figure 3: allowance -= 1, tc -= Q) whatever ``track_io``
    says, or it stays eligible with a positive allowance and tc never
    reaches 0, holding the cycle open for everyone.  ``cumulative``
    gains the measured CPU; a share-proportional sliver of post-crash
    ``debt`` rides on the charge
    (:func:`~repro.resilience.journal.drain_debt`).
    """
    measurements: dict[int, tuple[int, bool]] = {}
    anomalies = 0
    core_subjects = core.subjects
    for sid, pids in due:
        st = core_subjects.get(sid)
        if st is None:
            continue
        consumed = 0
        live = 0
        died = False
        empty = not pids
        blocked = track_io or empty
        for pid in pids:
            try:
                try:
                    usage = read(pid)
                except TransientReadError:
                    usage = retry(pid)
                    if usage is None:
                        continue
            except NoSuchProcessError:
                dead(sid, pid)
                died = True
                continue
            live += 1
            delta = usage - last_read.get(pid, usage)
            if delta < 0:
                anomalies += 1
                delta = 0
            consumed += delta
            last_read[pid] = usage
            if blocked and not is_blocked(pid):
                blocked = False
        if died and sid not in core_subjects:
            continue
        blocked = blocked and (live > 0 or empty)
        cumulative[sid] = cumulative.get(sid, 0) + consumed
        if debt:
            consumed += drain_debt(
                debt, sid, st.share, core.quantum_us, core.total_shares
            )
        # A bare tuple: complete_quantum unpacks positionally, and the
        # Measurement constructor costs several times a tuple display.
        measurements[sid] = (consumed, blocked)
    return measurements, anomalies
