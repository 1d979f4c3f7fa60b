"""``AlpsCore.check_runtime_invariants``: each clause, and the touched-row
check against a full scan.

The check reads only the rows partial sweeps wrote since the last
passing check (plus a kept eligible count for the livelock clause); a
full sweep, a membership or share change, or a restore makes it scan
every row.  Each clause is asserted after a full sweep and after a
partial one, and a Hypothesis state machine compares its verdict with
a full-scan reference, written here, on every call.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.alps.algorithm import AlpsCore
from repro.alps.state import Eligibility
from repro.errors import JournalCorruptError, SimulationError
from repro.resilience.journal import core_snapshot, restore_core

Q = 10_000
NAN = float("nan")
#: Per-quantum consumption: mostly within a quantum's reach, sometimes
#: a large overspend that empties an allowance at once.
CONSUMED = st.one_of(st.integers(0, 3 * Q), st.integers(5 * Q, 20 * Q))


def full_scan_verdict(core: AlpsCore) -> bool:
    """True iff some clause fails over *every* row (the reference)."""
    any_eligible = False
    for st in core.subjects.values():
        if not math.isfinite(st.allowance):
            return True
        eligible = st.state is Eligibility.ELIGIBLE
        if eligible != (st.allowance > 0):
            return True
        any_eligible = any_eligible or eligible
    return bool(core.subjects) and core.tc > 0 and not any_eligible


def settled_core() -> AlpsCore:
    """A core past its first (full) sweep and a passing check, whose
    every eligible subject is due each quantum."""
    core = AlpsCore({1: 2, 2: 3}, Q, optimized=False)
    core.begin_quantum()
    assert core.complete_quantum({}).full_sweep
    core.check_runtime_invariants()
    return core


def quantum(core: AlpsCore, measurements, *, full: bool):
    core.begin_quantum()
    decisions = core.complete_quantum(measurements)
    assert decisions.full_sweep is full
    return decisions


def make_dirty(core: AlpsCore) -> None:
    """A share change: the next sweep (and check) covers every row."""
    core.set_share(2, core.subjects[2].share + 1)


@pytest.mark.parametrize("full", [True, False], ids=["full", "partial"])
def test_nan_consumption_is_caught(full):
    core = settled_core()
    if full:
        make_dirty(core)
    quantum(core, {1: (NAN, False)}, full=full)
    with pytest.raises(SimulationError, match="subject 1 allowance is not finite"):
        core.check_runtime_invariants()


@pytest.mark.parametrize("full", [True, False], ids=["full", "partial"])
def test_eligibility_allowance_mismatch_is_caught(full):
    core = settled_core()
    if full:
        make_dirty(core)
    quantum(core, {1: (Q // 2, False)}, full=full)
    # A faulty write to a row this quantum swept: positive allowance,
    # yet ineligible.
    assert core.subjects[1].allowance > 0
    core.subjects[1].state = Eligibility.INELIGIBLE
    with pytest.raises(SimulationError, match="subject 1 eligibility"):
        core.check_runtime_invariants()


@pytest.mark.parametrize("full", [True, False], ids=["full", "partial"])
def test_livelock_is_caught(full):
    core = settled_core()
    if full:
        make_dirty(core)
    # A corrupted cycle remainder: every subject overspends, yet the
    # cycle cannot complete, so nobody is left eligible to measure.
    core.tc += 100 * core.cycle_length_us
    quantum(core, {1: (10 * Q, False), 2: (10 * Q, False)}, full=full)
    assert not any(s.eligible for s in core.subjects.values())
    with pytest.raises(SimulationError, match="livelock"):
        core.check_runtime_invariants()


def test_unchecked_quanta_are_still_checked():
    """Rows written by quanta no check followed are read by the next
    check: skipping checks cannot hide a corrupt row."""
    core = settled_core()
    quantum(core, {1: (NAN, False)}, full=False)
    for _ in range(3):
        quantum(core, {}, full=False)
    with pytest.raises(SimulationError, match="not finite"):
        core.check_runtime_invariants()


class TouchedRowMachine(RuleBasedStateMachine):
    """Join, leave, reshare, restore, measure, NaN and corrupted-``tc``
    steps; after each
    one the touched-row check must agree with the full-scan reference
    (except where the step draws ``check=False``, which lets partial
    sweeps pile up unchecked)."""

    @initialize(
        shares=st.lists(st.integers(1, 6), min_size=1, max_size=5),
        optimized=st.booleans(),
    )
    def setup(self, shares, optimized):
        self.core = AlpsCore(
            {sid: s for sid, s in enumerate(shares)}, Q, optimized=optimized
        )
        self.next_sid = len(shares)
        self.most = len(shares)
        self.snapshots: list[dict] = []

    def _check(self, check: bool = True) -> None:
        if not check:
            return
        expected = full_scan_verdict(self.core)
        try:
            self.core.check_runtime_invariants()
        except SimulationError:
            assert expected, "touched-row check raised, full scan passes"
        else:
            assert not expected, "full scan fails, touched-row check passes"

    @rule(
        share=st.integers(1, 6),
        check=st.booleans(),
    )
    def join(self, share, check):
        self.core.add_subject(self.next_sid, share)
        self.next_sid += 1
        self.most = max(self.most, len(self.core.subjects))
        self._check(check)

    @precondition(lambda self: len(self.core.subjects) > 1)
    @rule(data=st.data(), check=st.booleans())
    def leave(self, data, check):
        sid = data.draw(st.sampled_from(sorted(self.core.subjects)))
        self.core.remove_subject(sid)
        self._check(check)

    @precondition(lambda self: self.core.subjects)
    @rule(data=st.data(), share=st.integers(1, 6), check=st.booleans())
    def reshare(self, data, share, check):
        sid = data.draw(st.sampled_from(sorted(self.core.subjects)))
        self.core.set_share(sid, share)
        self._check(check)

    @rule(quanta=st.integers(1, 50), check=st.booleans())
    def inflate_tc(self, quanta, check):
        """A corrupted cycle remainder (a scalar the check reads afresh):
        overspending subjects then go ineligible without a cycle
        credit, which is how a livelock shows after a partial sweep."""
        self.core.tc += quanta * Q
        self._check(check)

    @rule()
    def snapshot(self):
        self.snapshots.append(core_snapshot(self.core))

    @precondition(lambda self: self.snapshots)
    @rule(data=st.data(), check=st.booleans())
    def restore(self, data, check):
        snap = data.draw(st.sampled_from(self.snapshots))
        try:
            restore_core(self.core, snap)
        except JournalCorruptError:
            pass  # a NaN cycle remainder is not restorable; core untouched
        self._check(check)

    @rule(
        data=st.data(),
        overspend=st.booleans(),
        stray=st.booleans(),
        nan=st.booleans(),
        check=st.booleans(),
    )
    def measure(self, data, overspend, stray, nan, check):
        core = self.core
        due = core.begin_quantum()
        measurements = {}
        for sid in due:
            if overspend:
                # Every due subject empties its allowance at once.
                measurements[sid] = (20 * Q, False)
                continue
            if not data.draw(st.booleans(), label=f"measure {sid}"):
                continue  # a failed read: unmeasured this quantum
            consumed = data.draw(CONSUMED, label=f"consumed {sid}")
            blocked = data.draw(st.booleans(), label=f"blocked {sid}")
            measurements[sid] = (consumed, blocked)
        if stray and core.subjects:
            # A subject measured although not due (as after a restore).
            sid = data.draw(st.sampled_from(sorted(core.subjects)), label="stray")
            measurements.setdefault(sid, (data.draw(CONSUMED), False))
        if nan and measurements:
            sid = data.draw(st.sampled_from(sorted(measurements)), label="nan")
            measurements[sid] = (NAN, measurements[sid][1])
        core.complete_quantum(measurements)
        self._check(check)

    @invariant()
    def bounded_backlog(self):
        """Unchecked quanta cannot grow the row list past the table."""
        unchecked = self.core._unchecked
        assert unchecked is None or len(unchecked) <= 2 * self.most + 1


TouchedRowMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
test_touched_row_check_matches_full_scan = TouchedRowMachine.TestCase
