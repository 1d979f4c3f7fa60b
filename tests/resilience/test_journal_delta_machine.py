"""State-machine test: the delta journal recovers what a journal of full
snapshots would.

A real simulated agent is driven through everything that moves its
journaled state — plain measured quanta, stop/cont, cycle ends, joins
and leaves, shed and readmit, reweighs, stalls past the re-baseline
tolerance, crash-restarts — while a Hypothesis-drawn mask drops or
tears individual appends.  The mask is a ``WriteFaults`` hook with
scripted fates, the hook a fault plan attaches, so whole deltas stay
pending, unencoded, among the torn prefixes until the bytes are read.
Every ``read_every`` appends, and after every step, the journal's
recovery point must equal the agent's full ``snapshot_state()`` as of
the last append that landed whole: exactly what one full snapshot per
quantum, fed the same mask, recovers.  Any state the agent changes
without either putting it in the delta or forcing a checkpoint fails
here.
"""

from __future__ import annotations

import json

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.alps.config import AlpsConfig
from repro.alps.subjects import ProcessSubject
from repro.kernel.actions import Sleep
from repro.kernel.signals import SIGKILL
from repro.overload import OverloadGuard
from repro.overload.ladder import Rung
from repro.resilience.journal import LOST, TORN, MemoryJournal, recover_journal
from repro.units import ms
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.spinner import spinner_behavior
from tests.resilience.scripted_faults import scripted_faults

QUANTUM_US = ms(10)

#: A :class:`~repro.resilience.journal.WriteFaults` verdict: None is whole.
WHOLE = None


class DeltaJournalMachine(RuleBasedStateMachine):
    @initialize(
        shares=st.lists(st.integers(1, 6), min_size=2, max_size=5),
        seed=st.integers(0, 3),
        read_every=st.sampled_from([1, 3, 12]),
    )
    def build(self, shares, seed, read_every):
        self.fates: list = []
        self.next_fate = WHOLE
        self.read_every = read_every
        self.journal = MemoryJournal(
            fault_hook=scripted_faults(self.fate, keep=lambda size: max(1, size // 2))
        )
        self.cw = build_controlled_workload(
            shares,
            # The core's runtime livelock check is off: a leave can round
            # ``tc`` to 1 with every subject ineligible (remove_subject
            # truncates the departing entitlement; same at the parent
            # commit, nothing to do with journaling), and this machine
            # finds that corner.  Unenforced, the run simply goes on.
            AlpsConfig(quantum_us=QUANTUM_US, enforce_invariants=False),
            seed=seed,
            journal=self.journal,
            overload=OverloadGuard(),
        )
        self.agent = self.cw.agent
        self.kapi = self.cw.kernel.kapi
        #: sid -> pid of every worker this test has not killed yet.
        self.alive = {i: proc.pid for i, proc in enumerate(self.cw.workers)}
        self.next_sid = len(shares)
        self.checked = 0
        #: What a full-snapshot journal under the same mask would
        #: recover right now.
        self.expected = None
        inner = self.agent.step.record

        def checked(now, *rest):
            inner(now, *rest)
            self.after_append(now)

        self.agent.step.record = checked
        # Stalls the way the fault injector makes them: the agent's next
        # timer sleep runs long, its intended wake time stays put.
        self.pending_stall = 0
        inner_next_action = self.agent.next_action

        def next_action(proc, kapi):
            action = inner_next_action(proc, kapi)
            if type(action) is Sleep and action.channel == "alpstimer":
                extra, self.pending_stall = self.pending_stall, 0
                if extra:
                    action = Sleep(
                        action.duration_us + extra * QUANTUM_US, action.channel
                    )
            return action

        self.agent.next_action = next_action

    # -- the mask -------------------------------------------------------
    def fate(self):
        fate, self.next_fate = self.next_fate, WHOLE
        self.fates.append(fate)
        return fate

    def after_append(self, now: int) -> None:
        assert len(self.fates) == self.journal.appends  # one verdict each
        if self.fates[-1] is WHOLE:
            # Round-trip through JSON as a stored record would be.
            self.expected = json.loads(json.dumps(self.agent.snapshot_state(now)))
        if self.journal.appends % self.read_every == 0:
            rec = recover_journal(self.journal.data)
            assert rec.snapshot == self.expected
            self.checked += 1

    # -- steps ----------------------------------------------------------
    @rule(quanta=st.integers(1, 12), fate=st.sampled_from([WHOLE, WHOLE, LOST, TORN]))
    def run(self, quanta, fate):
        """Run some quanta; the first append among them meets ``fate``."""
        self.next_fate = fate
        engine = self.cw.engine
        engine.run_until(engine.now + quanta * QUANTUM_US)

    @rule(share=st.integers(1, 6))
    def join(self, share):
        proc = self.cw.kernel.spawn(
            f"j{self.next_sid}", spinner_behavior(), uid=500 + self.next_sid
        )
        subject = ProcessSubject(sid=self.next_sid, share=share, pid=proc.pid)
        self.alive[self.next_sid] = proc.pid
        self.next_sid += 1
        self.agent.submit_subject(subject, self.kapi)

    @precondition(lambda self: len(self.alive) > 1)
    @rule(data=st.data())
    def leave(self, data):
        sid = data.draw(st.sampled_from(sorted(self.alive)))
        self.kapi.kill(self.alive.pop(sid), SIGKILL)

    @precondition(lambda self: self.agent.core.subjects)
    @rule(data=st.data(), share=st.integers(1, 6))
    def reweigh(self, data, share):
        sid = data.draw(st.sampled_from(sorted(self.agent.core.subjects)))
        self.agent.set_share(sid, share)

    @rule(quanta=st.integers(1, 8))
    def stall(self, quanta):
        """Oversleep ``quanta`` boundaries; past the tolerance the agent
        re-baselines every read."""
        self.pending_stall = quanta
        engine = self.cw.engine
        engine.run_until(engine.now + (quanta + 2) * QUANTUM_US)

    # The ladder steps straight through the policy: its port acts on
    # the kapi of the agent's latest activation, so the agent must have
    # woken at least once.
    @precondition(
        lambda self: self.agent.invocations and len(self.agent.core.subjects) > 1
    )
    @rule()
    def shed(self):
        self.cw.overload.ladder.rung = Rung.SHED
        self.agent.policy.enact(+1)

    @precondition(lambda self: self.cw.overload.shed_sids)
    @rule()
    def readmit(self):
        self.cw.overload.ladder.rung = Rung.COARSEN
        self.agent.policy.enact(-1)

    @precondition(lambda self: self.journal.appends > 0)
    @rule()
    def crash(self):
        before = self.agent.journal_recoveries + self.agent.recovery_fallbacks
        recovered = self.agent.restart()
        after = self.agent.journal_recoveries + self.agent.recovery_fallbacks
        # Restart recovered exactly the expected state (or fell back
        # because nothing ever landed).
        if self.expected is None:
            assert after == before + 1 and not self.agent.last_restart_journaled
        else:
            assert recovered == self.expected

    @invariant()
    def recovery_point_is_the_last_whole_append(self):
        if not hasattr(self, "journal"):
            return
        assert recover_journal(self.journal.data).snapshot == self.expected

    def teardown(self):
        if hasattr(self, "agent"):
            self.agent.shutdown(self.kapi)


#: Derandomized: a fixed set of runs, so the suite passes or fails the
#: same way every time.  Raise ``max_examples`` and drop the flag to hunt.
MACHINE_SETTINGS = settings(
    max_examples=40, stateful_step_count=25, deadline=None, derandomize=True
)

TestDeltaJournalClassic = DeltaJournalMachine.TestCase
TestDeltaJournalClassic.settings = MACHINE_SETTINGS


def test_a_plain_run_writes_mostly_deltas():
    """The machine is not vacuous: a plain run really writes mostly
    deltas, and every append is checked."""
    machine = DeltaJournalMachine()
    machine.build(shares=[1, 2, 3], seed=0, read_every=1)
    machine.run(quanta=12, fate=WHOLE)
    machine.run(quanta=12, fate=TORN)
    machine.run(quanta=12, fate=LOST)
    assert machine.checked >= 30
    data = machine.journal.data
    assert data.count(b"ALPSD1 ") > data.count(b"ALPSJ1 ") > 2
    machine.teardown()
