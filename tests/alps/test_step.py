"""``QuantumStep`` driven with scripted readings: no kernel, no host.

Each named constructor argument — the semantic differences between the
simulated agent and the real-Linux controller — is exercised on its
own, with everything else off: wedge healing, leaving a foreign stop
alone, the two timings of a dead pid's departure, a read whose retries
are spent, and a journaled restore that carries an outage's debt.
"""

from __future__ import annotations

from repro.alps.algorithm import AlpsCore
from repro.alps.step import QuantumStep
from repro.alps.subjects import ProcessSubject
from repro.errors import NoSuchProcessError, TransientReadError
from repro.resilience.journal import MemoryJournal

Q = 10_000


class ScriptedView:
    """A kapi-shaped process view answering from a table:
    ``procs[pid] = (cpu_us, state)`` with state ``R``, ``S`` (blocked)
    or ``T`` (stopped); a missing pid is dead; ``flaky[pid]`` reads fail
    transiently first."""

    def __init__(self, procs: dict[int, tuple[int, str]]) -> None:
        self.procs = dict(procs)
        self.flaky: dict[int, int] = {}
        self.reads = 0

    def read_progress(self, pid: int) -> tuple[int, bool, bool]:
        self.reads += 1
        if self.flaky.get(pid):
            self.flaky[pid] -= 1
            raise TransientReadError(pid)
        if pid not in self.procs:
            raise NoSuchProcessError(pid)
        cpu, state = self.procs[pid]
        return cpu, state == "S", state == "T"

    def is_stopped(self, pid: int) -> bool:
        if pid not in self.procs:
            raise NoSuchProcessError(pid)
        return self.procs[pid][1] == "T"

    def pid_exists(self, pid: int) -> bool:
        return pid in self.procs

    def run(self, pid: int, us: int) -> None:
        cpu, state = self.procs[pid]
        self.procs[pid] = (cpu + us, state)


def make_step(
    view: ScriptedView, shares=(1, 3), *, fresh: bool = False, **options
) -> QuantumStep:
    """One single-process subject per share, sid ``i`` on pid ``100 + i``,
    every named option off unless given.  Unless ``fresh`` (a restarted
    driver, about to restore), baselined at the view's readings and
    past the core's first quantum (which measures nothing and makes
    every subject eligible)."""
    core = AlpsCore(dict(enumerate(shares)), Q)
    members = {
        sid: ProcessSubject(sid, share, 100 + sid)
        for sid, share in enumerate(shares)
    }
    forgotten: list[int] = []
    step = QuantumStep(
        core,
        members,
        view=view,
        forget=forgotten.append,
        track_io=True,
        read_retry_budget=2,
        **{
            "heal_wedges": False,
            "foreign_stops": False,
            "dead_leaves_now": False,
            "journal_pending": False,
            **options,
        },
    )
    step.forgotten = forgotten
    if fresh:
        return step
    for sid in members:
        step.cumulative[sid] = 0
        step.baseline(100 + sid)
    one_quantum(step)
    return step


def one_quantum(step: QuantumStep, now: int = 0):
    due, _ = step.due()
    return step.quantum(due, now)


def suspend_subject_0(view: ScriptedView, step: QuantumStep):
    """Subject 0 (share 1) spins through a whole quantum, subject 1
    sleeps: the core suspends subject 0."""
    view.run(100, Q)
    decisions, signals = one_quantum(step)
    assert decisions.to_suspend == [0]
    return decisions, signals


# ----------------------------------------------------------------------
# heal_wedges
# ----------------------------------------------------------------------
def test_a_wedged_eligible_pid_is_healed_only_with_heal_wedges():
    for heal in (False, True):
        # pid 100 is stopped, but not by this driver: a lost SIGCONT.
        view = ScriptedView({100: (0, "T"), 101: (0, "R")})
        step = make_step(view, heal_wedges=heal)
        view.run(101, Q)
        decisions, signals = one_quantum(step)
        assert step.core._last_due == [0]
        assert not decisions.to_suspend and not decisions.to_resume
        if heal:
            assert signals == [(100, False)]
            assert step.stopped == {100}  # so delivery resumes it
            assert step.heals == 1
        else:
            assert signals == [] and step.stopped == set()
            assert step.heals == 0


# ----------------------------------------------------------------------
# foreign_stops
# ----------------------------------------------------------------------
def test_a_foreign_stop_is_neither_stopped_nor_resumed():
    view = ScriptedView({100: (0, "R"), 101: (0, "S")})
    step = make_step(view, foreign_stops=True)
    view.procs[100] = (Q, "T")  # someone else stopped it after it ran
    _, signals = suspend_subject_0(view, step)
    assert signals == []
    # Without the option the suspension is enacted regardless.
    view = ScriptedView({100: (0, "R"), 101: (0, "S")})
    step = make_step(view)
    view.procs[100] = (Q, "T")
    _, signals = suspend_subject_0(view, step)
    assert signals == [(100, True)]


def test_an_own_stop_is_resumed_under_foreign_stops():
    view = ScriptedView({100: (0, "R"), 101: (0, "S")})
    step = make_step(view, foreign_stops=True)
    _, signals = suspend_subject_0(view, step)
    assert signals == [(100, True)]
    step.stopped.add(100)  # the driver sent it
    view.procs[100] = (Q, "T")
    for _ in range(10):
        decisions, signals = one_quantum(step)
        if decisions.to_resume:
            break
    assert decisions.to_resume == [0] and signals == [(100, False)]


# ----------------------------------------------------------------------
# dead_leaves_now
# ----------------------------------------------------------------------
def test_a_dead_pid_is_forgotten_and_its_subject_shrunk_now_or_later():
    for now in (False, True):
        view = ScriptedView({100: (0, "R"), 101: (0, "R")})
        step = make_step(view, dead_leaves_now=now)
        del view.procs[100]
        one_quantum(step)
        assert step.forgotten == [100]
        # Now: the driver re-enumerates subject 0 this quantum.  Later:
        # its next liveness sweep takes the subject out of the core.
        assert step.shrunk == ([0] if now else [])


# ----------------------------------------------------------------------
# read retries
# ----------------------------------------------------------------------
def test_a_read_whose_retries_are_spent_keeps_its_baseline():
    view = ScriptedView({100: (0, "R"), 101: (0, "R")})
    step = make_step(view, heal_wedges=True)
    view.run(100, Q // 2)
    view.flaky[100] = 3  # the read and both retries fail
    measurements = {}
    inner = step.core.complete_quantum

    def complete(m):
        measurements.update(m)
        return inner(m)

    step.core.complete_quantum = complete
    _, signals = one_quantum(step)
    assert (step.read_retries, step.read_failures) == (2, 1)
    assert step.last_read[100] == 0  # deferred, not lost
    assert measurements[0] == (0, False)  # no reading: no vote, no charge
    assert signals == []  # the unread pid was inspected: running
    # The next successful read charges the whole interval.
    measurements.clear()
    view.run(100, Q // 4)
    one_quantum(step)
    assert measurements[0][0] == Q // 2 + Q // 4
    assert step.last_read[100] == Q // 2 + Q // 4


# ----------------------------------------------------------------------
# Journaled restore
# ----------------------------------------------------------------------
def journaled_run(**options):
    """Suspend subject 0 with a journal attached; returns the view, the
    step and the journal's recovery point."""
    view = ScriptedView({100: (0, "R"), 101: (0, "S")})
    step = make_step(view, **options)
    step.journal = MemoryJournal()
    _, signals = suspend_subject_0(view, step)
    for pid, stop in signals:  # the driver sends them
        view.procs[pid] = (view.procs[pid][0], "T")
        step.stopped.add(pid)
    one_quantum(step, now=Q)  # the next record carries the stop
    return view, step, step.journal.recover().snapshot


def test_restore_schedules_the_outage_debt_and_fixes_the_stop_set():
    view, before, payload = journaled_run()
    assert before.stopped == {100}
    # Down for a while: 101 ran 3 ms; someone resumed 100, which ran 2.
    view.procs[100] = (view.procs[100][0] + 2_000, "R")
    view.run(101, 3_000)
    view.procs[101] = (view.procs[101][0], "R")
    step = make_step(view, fresh=True)
    state = step.restore(payload)
    fixups, debt_us, npids = step.rejoin(state)
    assert not step.core.subjects[0].eligible
    assert debt_us == 5_000 and npids == 2
    assert step.debt == {0: 2_000, 1: 3_000}
    assert step.last_read == {100: Q + 2_000, 101: 3_000}
    # Kernel truth wins: 100 runs while its subject is suspended.
    assert fixups == [(100, True)] and step.stopped == set()


def test_restore_under_foreign_stops_trusts_the_journaled_stop_set():
    view, _, payload = journaled_run(foreign_stops=True)
    view.procs[100] = (view.procs[100][0], "R")  # resumed by someone
    step = make_step(view, fresh=True, foreign_stops=True)
    fixups, debt_us, _ = step.rejoin(step.restore(payload))
    assert fixups == [] and debt_us == 0
    assert step.stopped == {100}
    # A journaled pid that died meanwhile leaves the stop-set.
    del view.procs[100]
    step = make_step(view, fresh=True, foreign_stops=True)
    step.rejoin(step.restore(payload))
    assert step.stopped == set() and step.forgotten == [100]


def test_rejoin_reads_each_pid_once_and_asks_is_stopped_only_on_failure():
    view, _, payload = journaled_run()
    asked: list[int] = []
    is_stopped = view.is_stopped
    view.is_stopped = lambda pid: asked.append(pid) or is_stopped(pid)
    step = make_step(view, fresh=True)
    reads = view.reads
    step.rejoin(step.restore(payload))
    assert view.reads - reads == 2 and asked == []
    view.flaky[101] = 3
    step = make_step(view, fresh=True)
    step.rejoin(step.restore(payload))
    assert asked == [101]
    assert 101 not in step.last_read  # no reading: no debt, no baseline
