"""The ALPS scheduling algorithm (paper Figure 3), as a pure state machine.

The core is deliberately independent of any execution substrate: it
never reads clocks, sends signals, or sleeps.  A driver (the simulated
agent in :mod:`repro.alps.agent` or the real-Linux controller in
:mod:`repro.hostos.controller`) calls :meth:`AlpsCore.begin_quantum` when
its quantum timer fires, performs the (costly) progress reads the core
asked for, and feeds them to :meth:`AlpsCore.complete_quantum`, which
returns the eligibility transitions to enact.

Algorithm recap (Figure 3).  Each subject *i* has ``share_i`` and an
``allowance_i`` measured in quanta.  Per invocation::

    count += 1
    for i eligible with update_i <= count:
        consumed_i, blocked_i = READ-PROGRESS(i)
        allowance_i -= consumed_i / Q ;  tc -= consumed_i
        if blocked_i: allowance_i -= 1 ;  tc -= Q
    if tc <= 0: tc += S*Q ; cycles = 1 else 0
    for all i:
        allowance_i += share_i * cycles
        state_i = eligible if allowance_i > 0 else ineligible
        if update_i <= count: update_i = count + ceil(allowance_i)

The ``update_i`` bookkeeping is the paper's key optimization: a subject
with allowance *a* cannot exhaust it in fewer than ⌈a⌉ quanta, so its
progress need not be read again sooner.  Constructing the core with
``optimized=False`` disables it (every eligible subject is measured
every quantum), which is the ablation of Section 3.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional

from repro.alps.instrumentation import CycleLog, CycleRecord
from repro.alps.state import Eligibility, SubjectState
from repro.errors import SchedulerConfigError, SimulationError


class Measurement(NamedTuple):
    """Result of READ-PROGRESS for one subject.

    A NamedTuple rather than a frozen dataclass: drivers build one per
    measured subject per quantum, and the tuple constructor is several
    times cheaper while keeping immutability, equality, and hashing.

    Attributes:
        consumed_us: CPU time consumed since the previous measurement.
        blocked: True if the subject was observed blocked (sleeping on a
            wait channel) at read time.
    """

    consumed_us: int
    blocked: bool = False


@dataclass(slots=True)
class QuantumDecisions:
    """What the driver must enact after one algorithm invocation."""

    #: Subjects that transitioned eligible -> ineligible (suspend them).
    to_suspend: list[int] = field(default_factory=list)
    #: Subjects that transitioned ineligible -> eligible (resume them).
    to_resume: list[int] = field(default_factory=list)
    #: Set when this invocation completed a cycle.
    cycle_completed: bool = False
    #: The finished cycle's record (present iff ``cycle_completed``).
    cycle_record: Optional[CycleRecord] = None
    #: Set when this invocation swept every subject (a cycle credit, or
    #: a membership / share change / restore since the last sweep);
    #: otherwise only the due and measured subjects' rows were written.
    full_sweep: bool = False


class AlpsCore:
    """Backend-independent implementation of the ALPS algorithm.

    Subjects are integer ids (pids for per-process scheduling, or
    principal ids for user-level grouping).  Shares must be positive
    integers.  The paper scales shares by their GCD when defining the
    cycle length; we follow the evaluation section and use the raw total
    (the evaluation explicitly does not rescale).
    """

    def __init__(
        self,
        shares: Mapping[int, int],
        quantum_us: int,
        *,
        optimized: bool = True,
        cycle_log: Optional[CycleLog] = None,
        now_fn: Callable[[], int] = lambda: 0,
    ) -> None:
        if quantum_us <= 0:
            raise SchedulerConfigError(f"quantum must be positive, got {quantum_us}")
        if not shares:
            raise SchedulerConfigError("at least one subject is required")
        self.quantum_us = quantum_us
        self.optimized = optimized
        #: Multiplier on the postponement intervals (Section 2.3).  The
        #: overload layer's COARSEN rung raises it so measurements batch
        #: more coarsely under pressure; 1 is the exact paper behavior
        #: (docs/overload.md).
        self.postpone_boost = 1
        self.cycle_log = cycle_log if cycle_log is not None else CycleLog()
        self._now_fn = now_fn
        self.subjects: dict[int, SubjectState] = {}
        self.count = 0
        self.cycles_completed = 0
        self.total_shares = 0
        #: Remaining CPU time (µs) in the current cycle (tc in Figure 3).
        self.tc = 0
        #: Set when the next partition must sweep *all* subjects: after
        #: construction and any membership/share change, a subject's
        #: eligibility can change without it having been measured.
        self._dirty = True
        #: Subject ids returned by the latest begin_quantum (the only
        #: subjects, besides measured ones, whose update bookkeeping the
        #: matching complete_quantum can owe a write to).
        self._last_due: list[int] = []
        #: Rows partial sweeps wrote since the last passing
        #: check_runtime_invariants; None once a full sweep ran (or the
        #: list outgrew the table), so the next check scans every row.
        self._unchecked: Optional[list[int]] = None
        #: Eligible subjects, exact whenever ``_unchecked`` is a list
        #: and nothing set ``_dirty``: the livelock clause's O(1) input.
        self._n_eligible = 0
        for sid, share in shares.items():
            self._insert_subject(sid, share)
        self.tc = self.cycle_length_us

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _insert_subject(self, sid: int, share: int) -> None:
        if share <= 0:
            raise SchedulerConfigError(
                f"share for subject {sid} must be a positive integer, got {share}"
            )
        if sid in self.subjects:
            raise SchedulerConfigError(f"duplicate subject id {sid}")
        self.subjects[sid] = SubjectState(share=share, allowance=float(share))
        self.total_shares += share
        self._dirty = True

    @property
    def cycle_length_us(self) -> int:
        """S · Q — the CPU time over which proportions are guaranteed."""
        return self.total_shares * self.quantum_us

    def add_subject(self, sid: int, share: int) -> None:
        """Add a subject mid-run.

        The new subject starts ineligible with a full allowance, and the
        current cycle is extended by its entitlement (``share · Q``) so
        existing subjects' proportions within the extended cycle are
        preserved.
        """
        self._insert_subject(sid, share)
        self.tc += share * self.quantum_us

    def set_share(self, sid: int, share: int) -> None:
        """Change a subject's share mid-run (extension).

        The paper's motivating scientific application reweights
        processes as its mesh refines; this adjusts the cycle the same
        way add/remove do: the current cycle is stretched or shrunk by
        the entitlement delta, and the subject's allowance is adjusted
        so already-earned credit is preserved.
        """
        st = self.subjects.get(sid)
        if st is None:
            raise SchedulerConfigError(f"unknown subject id {sid}")
        if share <= 0:
            raise SchedulerConfigError(
                f"share for subject {sid} must be a positive integer, got {share}"
            )
        delta = share - st.share
        if delta == 0:
            return
        self.total_shares += delta
        self.tc += delta * self.quantum_us
        st.allowance += delta
        st.share = share
        self._dirty = True
        # Eligibility is deliberately left as-is: the next invocation's
        # partition loop recomputes it and reports the transition, so
        # the driver sends the matching SIGSTOP/SIGCONT.

    def remove_subject(self, sid: int) -> SubjectState:
        """Remove a subject (e.g. its process exited) and return its state.

        The unconsumed part of its entitlement leaves the cycle with it,
        so remaining subjects are not stretched over CPU time that will
        never be consumed.
        """
        state = self.subjects.pop(sid, None)
        if state is None:
            raise SchedulerConfigError(f"unknown subject id {sid}")
        self.total_shares -= state.share
        if self.total_shares < 0:  # pragma: no cover - defensive
            raise SchedulerConfigError("total shares went negative")
        remaining_entitlement = max(0.0, state.allowance) * self.quantum_us
        self.tc -= int(remaining_entitlement)
        self._dirty = True
        return state

    # ------------------------------------------------------------------
    # The algorithm
    # ------------------------------------------------------------------
    def begin_quantum(self) -> list[int]:
        """Start an invocation: advance ``count`` and pick who to measure.

        Returns the subject ids whose progress the driver must read
        (eligible, and due per the postponement optimization).  The
        driver then calls :meth:`complete_quantum` with the readings.
        """
        count = self.count + 1
        self.count = count
        eligible = Eligibility.ELIGIBLE
        items = self.subjects.items()
        if self.optimized:
            due = [
                sid for sid, st in items if st.state is eligible and st.update <= count
            ]
        else:
            due = [sid for sid, st in items if st.state is eligible]
        self._last_due = due
        return due

    def complete_quantum(
        self, measurements: Mapping[int, tuple[int, bool]]
    ) -> QuantumDecisions:
        """Apply one invocation's measurements (Figure 3 body).

        ``measurements`` must cover exactly the ids returned by the
        matching :meth:`begin_quantum` call (missing ids are treated as
        unmeasured, which preserves liveness if a read failed).  Values
        are :class:`Measurement` instances or plain
        ``(consumed_us, blocked)`` tuples — hot drivers pass the latter
        to skip the NamedTuple constructor.
        """
        q = self.quantum_us
        subjects = self.subjects
        subjects_get = subjects.get
        tc = self.tc
        # Measurement is a NamedTuple: unpack it instead of two
        # attribute reads per entry.
        for sid, (consumed, was_blocked) in measurements.items():
            st = subjects_get(sid)
            if st is None:
                continue  # subject removed between begin and complete
            if consumed:  # most due subjects did not run: nothing to charge
                st.allowance -= consumed / q
                tc -= consumed
                st.consumed_this_cycle += consumed
            st.measurements += 1
            if was_blocked:
                st.allowance -= 1.0
                tc -= q
                st.blocked_quanta_this_cycle += 1
        self.tc = tc

        decisions = QuantumDecisions()
        cycles = 0
        if tc <= 0 and subjects:
            cycles = 1
            self.tc += self.cycle_length_us
            decisions.cycle_completed = True
            decisions.cycle_record = self._finish_cycle()

        count = self.count
        eligible = Eligibility.ELIGIBLE
        ineligible = Eligibility.INELIGIBLE
        ceil = math.ceil
        boost = self.postpone_boost
        if cycles or self._dirty:
            # Full partition sweep: a cycle credit (or a membership /
            # share change since the last sweep) can flip any subject.
            decisions.full_sweep = True
            for sid, st in subjects.items():
                allowance = st.allowance
                if cycles:
                    allowance = st.allowance = allowance + st.share
                new_state = eligible if allowance > 0 else ineligible
                if new_state is not st.state:
                    if new_state is eligible:
                        decisions.to_resume.append(sid)
                    else:
                        decisions.to_suspend.append(sid)
                    st.state = new_state
                if st.update <= count or sid in measurements:
                    # ceil(allowance), at least 1 (a NaN allowance, which
                    # check_runtime_invariants reports, gets 1 too).
                    up = ceil(allowance) if allowance > 1 else 1
                    st.update = count + up * boost
            self._dirty = False
            self._unchecked = None
        else:
            # No credit and no external change: only subjects whose
            # allowance this call touched (measured) or that were due
            # can transition, and only due/measured subjects are owed an
            # ``update`` write.  Skipped ineligible subjects keep a
            # stale ``update <= count``, which begin_quantum never reads
            # while they are ineligible and which the next full sweep
            # recomputes from the same inputs — so the skip is
            # unobservable (the oracle differential test pins this).
            visit = self._last_due
            stray = measurements.keys() - visit
            if stray:
                # Measured but not due (only after a restore): visit too.
                visit = visit + [
                    sid for sid in measurements if sid in stray and sid in subjects
                ]
            to_resume = decisions.to_resume
            to_suspend = decisions.to_suspend
            for sid in visit:
                # Present: a removal since begin_quantum set _dirty.
                st = subjects[sid]
                allowance = st.allowance
                new_state = eligible if allowance > 0 else ineligible
                if new_state is not st.state:
                    if new_state is eligible:
                        to_resume.append(sid)
                    else:
                        to_suspend.append(sid)
                    st.state = new_state
                if st.update <= count or sid in measurements:
                    # ceil(allowance), at least 1 (a NaN allowance, which
                    # check_runtime_invariants reports, gets 1 too).
                    up = ceil(allowance) if allowance > 1 else 1
                    st.update = count + up * boost
            unchecked = self._unchecked
            if unchecked is not None:
                if len(unchecked) > len(subjects):
                    self._unchecked = None  # a full scan is no dearer now
                else:
                    unchecked += visit
                    self._n_eligible += len(to_resume) - len(to_suspend)
        return decisions

    def _finish_cycle(self) -> CycleRecord:
        record = CycleRecord(
            index=self.cycles_completed,
            end_time=self._now_fn(),
            consumed={sid: st.consumed_this_cycle for sid, st in self.subjects.items()},
            blocked_quanta={
                sid: st.blocked_quanta_this_cycle for sid, st in self.subjects.items()
            },
            shares={sid: st.share for sid, st in self.subjects.items()},
            quantum_us=self.quantum_us,
        )
        self.cycle_log.append(record)
        self.cycles_completed += 1
        for st in self.subjects.values():
            st.consumed_this_cycle = 0
            st.blocked_quanta_this_cycle = 0
        return record

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def eligibility(self, sid: int) -> Eligibility:
        """Current eligibility of a subject."""
        return self.subjects[sid].state

    def allowance(self, sid: int) -> float:
        """Current allowance (quanta) of a subject."""
        return self.subjects[sid].allowance

    def check_runtime_invariants(self) -> None:
        """Raise :class:`SimulationError` if scheduler state is corrupt.

        Meant to run after each :meth:`complete_quantum` (drivers gate
        it on ``AlpsConfig.enforce_invariants``).  Checks:

        * every allowance is finite (fault-corrupted accounting shows
          up as NaN/inf long before results are visibly wrong);
        * eligibility matches the allowance sign (Figure 3's partition
          is the ground truth, and complete_quantum just recomputed it);
        * no livelock: with subjects present and no cycle completion
          pending (``tc > 0``), at least one subject must be eligible —
          an all-ineligible state with a positive cycle remainder can
          never measure progress and would idle the group forever.

        Only the rows partial sweeps wrote since the last passing check
        are read, against a kept count of eligible subjects: only core
        methods write ``allowance`` and ``state``, and every write
        outside a partial sweep — a full sweep, a membership or share
        change, a restore — makes this call scan every row instead, so
        the verdict is the full scan's.
        """
        subjects = self.subjects
        rows = self._unchecked
        eligible = Eligibility.ELIGIBLE
        if rows is None or self._dirty:
            rows = subjects
            self._n_eligible = sum(st.state is eligible for st in subjects.values())
        for sid in rows:
            st = subjects[sid]
            allowance = st.allowance
            # allowance - allowance is 0.0 exactly when it is finite.
            if allowance - allowance or (st.state is eligible) is not (allowance > 0):
                raise SimulationError(
                    f"subject {sid} allowance is not finite: {allowance}"
                    if allowance - allowance
                    else f"subject {sid} eligibility {st.state} inconsistent "
                    f"with allowance {allowance}"
                )
        if subjects and self.tc > 0 and not self._n_eligible:
            raise SimulationError(
                "livelock: all subjects ineligible with cycle remainder "
                f"tc={self.tc} > 0"
            )
        self._unchecked = []
