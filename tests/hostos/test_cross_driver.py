"""Cross-driver differential: the agent's quanta, replayed through HostAlps.

The simulated agent runs each Table 2 cell (seed 0) with a journal;
every quantum its due list and the readings of the due pids — CPU and
run state from the PCB, as /proc would show them — are recorded at the
instant the agent reads them.  ``HostAlps._one_quantum`` then runs the
same quanta over a host port answering from that recording.  Both
drivers run one quantum step, so the core must take identical
decisions on every quantum, and the two journals must hold the same
records but for the differences docs/algorithm.md names
("Two drivers, one step").  After the replay, each driver recovers from
its own journal over the same post-outage readings, and both must come
back to the same state.
"""

from __future__ import annotations

import json

import pytest

from repro.alps.agent import AlpsAgent
from repro.alps.algorithm import QuantumDecisions
from repro.alps.config import AlpsConfig
from repro.alps.subjects import ProcessSubject
from repro.hostos.controller import HostAlps
from repro.hostos.port import ProcfsHost
from repro.perf.differential import TABLE2_SIZES
from repro.resilience.journal import MemoryJournal, core_snapshot
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.shares import (
    DISTRIBUTIONS,
    ShareDistribution,
    workload_shares,
)
from tests.hostos.fakehost import pcb_stat

QUANTUM_US = ms(10)
#: Two whole cycles of the largest cell (400 shares × 10 ms).
HORIZON_US = sec(10)


class ReplayHost(ProcfsHost):
    """The host port answering from one recorded agent quantum at a time."""

    def __init__(self) -> None:
        self.now = 0
        self.readings: dict[int, tuple[int, str]] = {}
        self.sent: list[tuple[int, int]] = []

    def clock(self) -> int:
        return self.now

    def stat(self, pid: int) -> tuple[int, str]:
        return self.readings[pid]

    def kill(self, pid: int, signo: int) -> None:
        self.sent.append((pid, signo))

    def ancestors(self) -> list[int]:
        return []


def record_agent(shares):
    """Run the agent on one cell; returns it with its baselines,
    per-quantum ``(now, due, readings, decisions)`` and its journal."""
    journal = MemoryJournal()
    cw = build_controlled_workload(
        shares, AlpsConfig(quantum_us=QUANTUM_US), seed=0, journal=journal
    )
    agent, kernel = cw.agent, cw.kernel
    quanta: list[tuple[int, list, dict, QuantumDecisions]] = []
    baselines: dict[int, int] = {}
    quantum, complete = agent.step.quantum, agent.core.complete_quantum

    def recording_quantum(due, now):
        if not quanta and not baselines:
            baselines.update(agent.step.last_read)
        recorded = [(sid, list(pids)) for sid, pids in due]
        readings = {
            pid: pcb_stat(kernel, pid) for _, pids in recorded for pid in pids
        }
        quanta.append((now, recorded, readings, None))
        return quantum(due, now)

    def recording_complete(measurements):
        decisions = complete(measurements)
        now, due, readings, _ = quanta[-1]
        quanta[-1] = (now, due, readings, decisions)
        return decisions

    agent.step.quantum = recording_quantum
    agent.core.complete_quantum = recording_complete
    cw.engine.run_until(HORIZON_US)
    assert agent.rebaselines == 0 and agent.heals == 0
    return agent, baselines, quanta, journal


def records(journal: MemoryJournal) -> list[tuple[bytes, dict]]:
    out = []
    for line in journal.data.splitlines():
        kind, _seq, _crc, body = line.split(b" ", 3)
        out.append((kind, json.loads(body)))
    return out


@pytest.mark.parametrize("n", TABLE2_SIZES)
@pytest.mark.parametrize("model", DISTRIBUTIONS, ids=lambda m: m.value)
def test_host_replays_the_agents_quanta(model, n):
    agent, baselines, quanta, agent_journal = record_agent(workload_shares(model, n))
    host = ReplayHost()
    host_journal = MemoryJournal()
    alps = HostAlps(
        [ProcessSubject(s.sid, s.share, s.pid) for s in agent.subjects.values()],
        quantum_s=QUANTUM_US / 1_000_000,
        journal=host_journal,
        host=host,
    )
    # What run() does before its first quantum, at the agent's readings.
    alps.step.last_read = dict(baselines)
    alps.step.cumulative = dict.fromkeys(alps.policy.members, 0)
    assert len(quanta) >= HORIZON_US // QUANTUM_US - 5
    for k, (now, due, readings, decisions) in enumerate(quanta):
        host.now = now
        host.readings.update(readings)
        got = alps._one_quantum()
        assert alps.core._last_due == [sid for sid, _ in due], f"quantum {k}"
        assert got == decisions, f"quantum {k}"
    assert any(d.cycle_completed for *_, d in quanta)
    assert any(d.to_suspend for *_, d in quanta)
    assert alps.step.last_read == agent.step.last_read
    assert alps.step.cumulative == agent.step.cumulative

    agent_records, host_records = records(agent_journal), records(host_journal)
    assert len(agent_records) == len(host_records) == len(quanta)
    for k, ((kind, mine), (host_kind, theirs)) in enumerate(
        zip(agent_records, host_records)
    ):
        assert host_kind == kind, f"record {k}"
        if kind == b"ALPSJ1":
            # Each driver checkpoints its own extra scalar or table.
            del mine["agent"]["epoch"]
            del theirs["agent"]["initial"]
        else:
            # A delta carries the stop-set rows of the pids signalled
            # since the last record; the agent's also carries those it
            # is about to signal.  Where both carry a pid they agree.
            ours, hosts = mine["agent"].pop("stopped"), theirs["agent"].pop("stopped")
            assert hosts.items() <= ours.items(), f"record {k}"
        assert theirs == mine, f"record {k}"


class ReadingsKapi:
    """The agent's kapi surface over a :class:`ReplayHost`'s readings."""

    def __init__(self, host: ReplayHost) -> None:
        self.host = host

    @property
    def now(self) -> int:
        return self.host.now

    def read_progress(self, pid: int) -> tuple[int, bool, bool]:
        cpu, state = self.host.readings[pid]
        return cpu, state in ("S", "D"), state == "T"

    def is_stopped(self, pid: int) -> bool:
        return self.host.readings[pid][1] == "T"

    def pid_exists(self, pid: int) -> bool:
        return pid in self.host.readings

    def exit_count(self) -> int:
        return 0

    def kill(self, pid: int, signo: int) -> None:
        self.host.sent.append((pid, signo))


@pytest.mark.parametrize("n", TABLE2_SIZES)
def test_both_drivers_recover_the_same_state_from_their_journals(n):
    """After the replay, a fresh agent and a fresh HostAlps each restore
    from their own journal at the same instant over the same
    post-outage readings: the same core, the same scheduled debt, and
    the same decisions on the first quantum after recovery."""
    model = ShareDistribution.LINEAR
    agent, baselines, quanta, agent_journal = record_agent(workload_shares(model, n))
    subjects = [
        ProcessSubject(s.sid, s.share, s.pid) for s in agent.subjects.values()
    ]
    replay = ReplayHost()
    host_journal = MemoryJournal()
    alps = HostAlps(
        subjects, quantum_s=QUANTUM_US / 1_000_000, journal=host_journal,
        host=replay,
    )
    alps.step.last_read = dict(baselines)
    alps.step.cumulative = dict.fromkeys(alps.policy.members, 0)
    for now, _, readings, _ in quanta:
        replay.now = now
        replay.readings.update(readings)
        alps._one_quantum()

    # Down for 25 ms: every pid ran a pid-dependent amount and is
    # running when both drivers come back.
    outage = ReplayHost()
    outage.now = quanta[-1][0] + 25_000
    outage.readings = {
        pid: (cpu + 1_000 * (1 + pid % 5), "R")
        for pid, (cpu, _) in replay.readings.items()
    }
    fresh = AlpsAgent(
        [ProcessSubject(s.sid, s.share, s.pid) for s in subjects],
        AlpsConfig(quantum_us=QUANTUM_US),
    )
    fresh.attach_journal(agent_journal)
    fresh.restart()
    assert fresh.last_restart_journaled
    kapi = ReadingsKapi(outage)
    fresh.next_action(None, kapi)  # the RECOVERING activation
    host = HostAlps(
        [ProcessSubject(s.sid, s.share, s.pid) for s in subjects],
        quantum_s=QUANTUM_US / 1_000_000,
        journal=host_journal,
        host=outage,
    )
    assert host.restore_from_journal()

    assert core_snapshot(fresh.core) == core_snapshot(host.core)
    assert fresh.step.debt == host.step.debt
    assert sum(fresh.step.debt.values()) > 0
    assert fresh.step.last_read == host.step.last_read

    # Forty more quanta over the same readings, each driver's own step;
    # every process gets an equal slice, so small shares run out.
    fresh.step.view = kapi
    slice_us = QUANTUM_US // len(outage.readings)
    transitions = 0
    for k in range(40):
        outage.now += QUANTUM_US
        for pid, (cpu, state) in list(outage.readings.items()):
            outage.readings[pid] = (cpu + slice_us, state)
        ours = fresh.step.quantum(fresh.step.due()[0], outage.now)[0]
        theirs = host.step.quantum(host.step.due()[0], outage.now)[0]
        assert fresh.core._last_due == host.core._last_due, f"quantum {k}"
        assert ours == theirs, f"quantum {k}"
        transitions += len(ours.to_suspend) + len(ours.to_resume)
    assert transitions
    assert core_snapshot(fresh.core) == core_snapshot(host.core)
