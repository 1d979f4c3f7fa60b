"""The quantum step's read retry (``QuantumStep.retry``) as the agent
runs it: budget exhaustion and its accounting.

Companion to tests/hostos/test_controller_robustness.py, which pins the
same discrimination (transient vs gone) for the live controller.
"""

from __future__ import annotations

from repro.alps.agent import AlpsAgent
from repro.alps.config import AlpsConfig
from repro.alps.step import measure_due
from repro.alps.subjects import ProcessSubject
from repro.errors import NoSuchProcessError, TransientReadError
from tests.alps.test_agent_unit import FakeKapi

Q = 10_000


class RetryKapi(FakeKapi):
    """read_progress scripted per call (a running, unstopped pid) while
    the script lasts, the fake kernel's reading after it."""

    def __init__(self, script) -> None:
        super().__init__()
        self.script = list(script)
        self.calls = 0

    def read_progress(self, pid: int) -> tuple[int, bool, bool]:
        self.calls += 1
        if not self.script:
            return super().read_progress(pid)
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step, False, False


def make_agent(budget: int, kapi: RetryKapi) -> AlpsAgent:
    agent = AlpsAgent(
        [ProcessSubject(sid=0, share=1, pid=100)],
        AlpsConfig(quantum_us=Q, read_retry_budget=budget),
    )
    agent.step.view = kapi  # the activation's kapi, which retries read through
    return agent


def test_retry_read_succeeds_within_budget():
    kapi = RetryKapi([TransientReadError(100), 4321])
    agent = make_agent(3, kapi)
    assert agent.step.retry(100) == (4321, False, False)
    assert agent.read_retries == 2
    assert agent.read_failures == 0
    # Each retry's CPU is owed to the next quantum, never free: a
    # quantum whose read needed two retries owes two reads' CPU.
    agent.next_action(None, kapi)  # init
    kapi.now = Q
    agent.next_action(None, kapi)  # wake 1 (nobody due yet)
    agent.next_action(None, kapi)  # apply 1: the subject becomes eligible
    kapi.now = 2 * Q
    agent.next_action(None, kapi)  # wake 2: pid 100 is due
    assert agent.read_retries == 2
    kapi.script = [TransientReadError(100)] * 3 + [4321]
    agent.next_action(None, kapi)  # apply 2: the quantum step reads 100
    assert agent.read_retries == 2 + 3
    assert agent._deferred_cost_us == 3 * agent.cfg.costs.measure_per_proc_us


def test_retry_read_exhaustion_returns_none_and_counts_failure():
    kapi = RetryKapi([TransientReadError(100)] * 10)
    agent = make_agent(2, kapi)
    agent.step.last_read[100] = 777  # pre-existing baseline
    assert agent.step.retry(100) is None
    assert kapi.calls == 2  # exactly the budget, no unbounded spinning
    assert agent.read_retries == 2
    assert agent.read_failures == 1
    # The baseline survives: the next successful read charges the full
    # elapsed interval — a skipped measurement defers, never loses.
    assert agent.step.last_read[100] == 777


def test_retry_read_zero_budget_fails_immediately():
    kapi = RetryKapi([1234])
    agent = make_agent(0, kapi)
    assert agent.step.retry(100) is None
    assert kapi.calls == 0
    assert agent.read_failures == 1


def test_retry_read_discriminates_gone_from_transient():
    """A pid that vanishes mid-retry is death, not a transient glitch:
    the measurement fold hears of it, its per-pid records go, and no
    failure is counted against the retry machinery."""
    kapi = RetryKapi([TransientReadError(100), TransientReadError(100),
                      NoSuchProcessError(100)])
    agent = make_agent(3, kapi)
    agent.step.last_read[100] = 777
    agent.step.stopped.add(100)
    measurements, _, suspects = measure_due(
        [(0, [100])],
        agent.core,
        read=kapi.read_progress,
        retry=agent.step.retry,
        dead=agent.step._dead,
        last_read=agent.step.last_read,
        cumulative=agent.step.cumulative,
        debt={},
        track_io=True,
    )
    assert measurements == {0: (0, False)}  # no live pid: not blocked
    assert suspects == []  # a dead pid needs no wedge healing
    assert agent.read_failures == 0
    assert 100 not in agent.step.last_read
    assert 100 not in agent.step.stopped
