"""READ-PROGRESS for one quantum (Figure 3), written once for both drivers.

:func:`measure_due` folds the progress reads of the subjects
:meth:`~repro.alps.algorithm.AlpsCore.begin_quantum` asked for into the
``{sid: (consumed_us, blocked)}`` map ``complete_quantum`` takes.  The
simulated :class:`~repro.alps.agent.AlpsAgent` and the real-Linux
:class:`~repro.hostos.controller.HostAlps` both call it, each supplying
only how one pid is read — one read per pid, giving its CPU time and
whether it is blocked or stopped — so the two cannot measure
contention differently.
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
    read: Callable[[int], tuple[int, bool, bool]],
    retry: Callable[[int], Optional[tuple[int, bool, bool]]],
    dead: Callable[[int, int], None],
    last_read: dict[int, int],
    cumulative: dict[int, int],
    debt: dict[int, int],
    track_io: bool,
) -> tuple[dict[int, tuple[int, bool]], int, list[tuple[int, int]]]:
    """Measure the due ``(sid, pids)``; returns the measurements, how
    many CPU counters ran backwards (each charged 0, never negative),
    and the ``(sid, pid)`` pairs, in walk order, whose stop state the
    driver cannot take as running: the pids read stopped, and those
    left unread.

    ``read(pid)`` is one read of ``(cpu_us, blocked, stopped)``, or
    raises :class:`NoSuchProcessError` (dead, reported to
    ``dead(sid, pid)`` in walk order) or :class:`TransientReadError`,
    after which ``retry(pid)`` reads again, raises, or returns None: no
    reading this quantum, the baseline kept so the next read charges
    the whole interval.

    A subject the core no longer holds is skipped unread, and one a
    ``dead`` report took out of the core is not measured.  A subject is
    blocked iff every live pid is, never with ``track_io`` off — except
    that a subject with no pid when its measurement starts is charged
    as blocked (Figure 3: allowance -= 1, tc -= Q) whatever
    ``track_io`` says, or it stays eligible with a positive allowance
    and tc never reaches 0, holding the cycle open for everyone.
    ``cumulative`` gains the measured CPU; a share-proportional sliver
    of post-crash ``debt`` rides on the charge
    (:func:`~repro.resilience.journal.drain_debt`).
    """
    measurements: dict[int, tuple[int, bool]] = {}
    anomalies = 0
    suspects: list[tuple[int, int]] = []
    core_subjects = core.subjects
    for sid, pids in due:
        st = core_subjects.get(sid)
        if st is None:
            continue
        consumed = 0
        live = 0
        died = False
        blocked = track_io or not pids
        for pid in pids:
            try:
                try:
                    usage, pid_blocked, stopped = read(pid)
                except TransientReadError:
                    progress = retry(pid)
                    if progress is None:
                        suspects.append((sid, pid))
                        continue
                    usage, pid_blocked, stopped = progress
            except NoSuchProcessError:
                dead(sid, pid)
                died = True
                continue
            live += 1
            last = last_read.get(pid)
            if last != usage:  # no baseline yet, or progress to charge
                if last is not None:
                    if usage < last:
                        anomalies += 1
                    else:
                        consumed += usage - last
                last_read[pid] = usage
            if not pid_blocked:
                blocked = False
            if stopped:
                suspects.append((sid, pid))
        if died and sid not in core_subjects:
            continue
        if blocked and not live and pids:
            blocked = False  # every pid died or went unread: no vote
        if consumed or sid not in cumulative:
            cumulative[sid] = cumulative.get(sid, 0) + consumed
        if debt:
            consumed += drain_debt(
                debt, sid, st.share, core.quantum_us, core.total_shares
            )
        # A bare tuple: complete_quantum unpacks positionally, and the
        # Measurement constructor costs several times a tuple display.
        measurements[sid] = (consumed, blocked)
    return measurements, anomalies, suspects
