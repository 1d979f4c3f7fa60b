"""One admission / ladder / share-tree script through both drivers.

``HostAlps`` runs with procfs and ``os.kill`` monkeypatched, as in
test_controller_robustness.py, so no real process is touched and this
runs in the default suite; the simulated agent runs the same script on
the simulated kernel.  Both enact :mod:`repro.alps.policy`, so after
every step they must agree on core membership and shares, the shed
set, queue depths and the ``(kind, sid)`` sequence of policy events.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.alps.agent import spawn_alps
from repro.alps.config import AlpsConfig
from repro.alps.policy import AlpsPolicy
from repro.alps.subjects import ProcessSubject
from repro.errors import HostOSError
from repro.hostos import procfs
from repro.hostos.controller import HostAlps
from repro.kernel import KernelConfig, make_kernel
from repro.kernel.signals import SIGKILL
from repro.obs import Observer
from repro.overload import OverloadConfig, OverloadGuard
from repro.overload.ladder import Rung
from repro.sharetree import ShareTree
from repro.sim.engine import Engine
from repro.units import ms
from repro.workloads.spinner import spinner_behavior

#: Subject ids, which are pids on the host.  Far above any real pid
#: range; ``os.kill`` is patched anyway.
A, B, C, G, D, E = range(5_000_001, 5_000_007)
SHARES = {A: 1, B: 2, C: 3, G: 1}
#: Enough quanta for any single step to settle.
STEP_LIMIT = 500


def make_tree() -> ShareTree:
    """Three flat leaves plus gate ``g`` (capacity 1) holding G."""
    tree = ShareTree()
    tree.leaf("a", sid=A, weight=1)
    tree.leaf("b", sid=B, weight=2)
    tree.leaf("c", sid=C, weight=3)
    tree.group("g", 2, capacity=1)
    tree.leaf("g/0", sid=G, weight=1)
    return tree


def policy_events(obs: Observer) -> list[tuple[str, object]]:
    return [
        (ev.kind, ev.fields.get("sid"))
        for ev in obs.events
        if ev.kind.startswith(("overload.", "sharetree."))
    ]


class Driver:
    """What the script needs from a driver; subclasses bind it."""

    policy: AlpsPolicy
    obs: Observer

    def until(self, done) -> None:
        for _ in range(STEP_LIMIT):
            if done():
                return
            self.quantum()
        raise AssertionError("step did not settle")

    def engage_shed(self) -> None:
        self.policy.guard.ladder.rung = Rung.SHED
        self.policy.enact(+1)

    def relax_to_normal(self) -> None:
        self.policy.guard.ladder.rung = Rung.NORMAL
        self.policy.enact(-1)

    def view(self) -> dict:
        policy = self.policy
        return {
            "core": {sid: st.share for sid, st in policy.core.subjects.items()},
            "shed": set(policy.shed),
            "queued": policy.guard.admission.depth,
            "gated": policy.tree.pending_admissions,
            "events": policy_events(self.obs),
        }


class SimDriver(Driver):
    def __init__(self) -> None:
        self.obs = Observer()
        self.engine = Engine(seed=0, observer=self.obs)
        self.kernel = make_kernel(self.engine, KernelConfig())
        self.kernel.attach_observer(self.obs)
        self.kapi = self.kernel.kapi
        self.pids: dict[int, int] = {}
        subjects = [self.subject(sid, share) for sid, share in SHARES.items()]
        _, self.agent = spawn_alps(
            self.kernel,
            subjects,
            AlpsConfig(quantum_us=ms(10)),
            overload=OverloadGuard(OverloadConfig(capacity=4)),
            sharetree=make_tree(),
        )
        self.policy = self.agent.policy
        self.until(lambda: self.agent.invocations > 0)

    def subject(self, sid: int, share: int) -> ProcessSubject:
        proc = self.kernel.spawn(f"s{sid}", spinner_behavior(), uid=sid % 1000)
        self.pids[sid] = proc.pid
        return ProcessSubject(sid=sid, share=share, pid=proc.pid)

    def quantum(self) -> None:
        self.engine.run_until(self.engine.now + ms(10))

    def submit(self, sid: int, share: int, path=None) -> bool:
        return self.agent.submit_subject(
            self.subject(sid, share), self.kapi, path=path
        )

    def kill(self, sid: int) -> None:
        self.kernel.kill(self.pids[sid], SIGKILL)

    def stopped(self, sid: int) -> bool:
        return self.kapi.is_stopped(self.pids[sid])

    def baseline_is_fresh(self, sid: int) -> bool:
        pid = self.pids[sid]
        return self.agent._last_read[pid] == self.kapi.getrusage(pid)


class HostDriver(Driver):
    """Scripted procfs: every read of a live pid finds it one quantum
    further on; signals only land in ``sent`` and move ``paused`` (the
    pids procfs shows in state ``T``)."""

    QUANTUM_US = 1_000_000  # far above the script's real-time slip

    def __init__(self, monkeypatch) -> None:
        self.usage = {sid: 0 for sid in SHARES}
        self.sent: list[tuple[int, int]] = []
        self.paused: set[int] = set()

        def read_stat(pid):
            if pid not in self.usage:
                raise HostOSError("gone")
            self.usage[pid] += self.QUANTUM_US
            ticks = self.usage[pid] // procfs._US_PER_TICK
            state = "T" if pid in self.paused else "R"
            return procfs.ProcStat(pid, "w", state, ticks, 0)

        def kill(pid, signo):
            self.sent.append((pid, signo))
            if signo == signal.SIGSTOP:
                self.paused.add(pid)
            elif signo == signal.SIGCONT:
                self.paused.discard(pid)

        monkeypatch.setattr(procfs, "read_proc_stat", read_stat)
        monkeypatch.setattr(
            procfs, "cpu_time_us", lambda pid: read_stat(pid).cpu_time_us
        )
        monkeypatch.setattr(procfs, "is_alive", lambda pid: pid in self.usage)
        monkeypatch.setattr(os, "kill", kill)
        self.obs = Observer()
        self.alps = HostAlps(
            dict(SHARES),
            quantum_s=self.QUANTUM_US / 1_000_000,
            observer=self.obs,
            overload=OverloadGuard(OverloadConfig(capacity=4)),
            sharetree=make_tree(),
        )
        self.policy = self.alps.policy

    def quantum(self) -> None:
        # One iteration of HostAlps.run's loop, minus the sleep.
        self.policy.wake(self.alps._now())
        self.alps._one_quantum()

    def submit(self, sid: int, share: int, path=None) -> bool:
        self.usage[sid] = 0
        return self.alps.submit_pid(sid, share, path=path)

    def kill(self, sid: int) -> None:
        del self.usage[sid]

    def stopped(self, sid: int) -> bool:
        return sid in self.paused

    def baseline_is_fresh(self, sid: int) -> bool:
        return self.alps._last_read[sid] == self.usage[sid]


def test_both_drivers_enact_one_policy(monkeypatch):
    sim, host = SimDriver(), HostDriver(monkeypatch)
    drivers = (sim, host)

    def agree() -> dict:
        views = [d.view() for d in drivers]
        assert views[0] == views[1]
        return views[0]

    # The tree resolves g/0's weight 1 under g's 2 to an effective 2.
    assert agree()["core"] == {A: 1, B: 2, C: 3, G: 2}

    # 1. At capacity (4), a flat arrival queues.
    for d in drivers:
        assert not d.submit(D, 1)
    assert agree()["queued"] == 1

    # 2. A member dies; a later wake drains the arrival into its slot.
    for d in drivers:
        d.kill(B)
        d.until(lambda d=d: D in d.policy.members)
    view = agree()
    assert view["core"] == {A: 1, C: 3, G: 2, D: 1}
    assert view["queued"] == 0

    # 3. The ladder engages to SHED: the lowest share (A; ties break to
    # the lower sid) is released, and its stopped pid resumed.
    for d in drivers:
        d.until(lambda d=d: d.stopped(A))
        d.engage_shed()
        assert not d.stopped(A)
    assert host.sent[-1] == (A, signal.SIGCONT)
    view = agree()
    assert view["shed"] == {A}
    assert A not in view["core"]

    # 4. Relaxing below SHED readmits A with a fresh read baseline.
    for d in drivers:
        d.relax_to_normal()
        assert d.baseline_is_fresh(A)
    view = agree()
    assert view["shed"] == set()
    assert view["core"][A] == 1

    # 5. A tree arrival queues at gate g (capacity 1, held by G), and
    # drains into the slot G's death frees.
    for d in drivers:
        assert not d.submit(E, 1, path="g/1")
    assert agree()["gated"] == 1
    for d in drivers:
        d.kill(G)
        d.until(lambda d=d: E in d.policy.members)
    view = agree()
    assert view["gated"] == 0
    assert G not in view["core"]

    # 6. Reweighing g carries its new leaf with it.
    for d in drivers:
        d.policy.set_tree_weight("g", 4)
    view = agree()
    assert view["core"][E] == 4 * view["core"][A]
    assert [kind for kind, _ in view["events"]] == [
        "overload.queued",
        "overload.admitted",
        "overload.engage",
        "overload.shed",
        "overload.relax",
        "overload.readmit",
        "sharetree.queued",
        "sharetree.admitted",
    ]


def test_host_refuses_a_dead_arrival_under_a_guard(monkeypatch):
    """A pid gone before admission does not join and is not reported
    as admitted."""
    def gone(pid):
        raise HostOSError("no such process")

    monkeypatch.setattr(procfs, "cpu_time_us", gone)
    obs = Observer()
    alps = HostAlps({A: 1}, quantum_s=0.05, observer=obs, overload=OverloadGuard())
    assert not alps.submit_pid(D, 1)
    assert D not in alps.core.subjects
    assert policy_events(obs) == []


def test_host_path_errors_are_host_errors(monkeypatch):
    host = HostDriver(monkeypatch)
    with pytest.raises(HostOSError):
        host.alps.submit_pid(D, 1, path="nowhere/x")
    with pytest.raises(HostOSError):
        host.alps.set_tree_weight("nowhere", 2)
