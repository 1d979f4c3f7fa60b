"""One admission / ladder / share-tree script through both drivers.

``HostAlps`` runs on :class:`FakeHost` (a simulated kernel behind its
host port), so no real process is touched and this runs in the default
suite; the simulated agent runs the same script on its own simulated
kernel.  Both enact :mod:`repro.alps.policy`, so after every step they
must agree on core membership and shares, the shed set, queue depths
and the ``(kind, sid)`` sequence of policy events.
"""

from __future__ import annotations

import signal

import pytest

from repro.alps.agent import spawn_alps
from repro.alps.config import AlpsConfig
from repro.alps.policy import AlpsPolicy
from repro.alps.subjects import ProcessSubject
from repro.errors import HostOSError
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
from tests.hostos.fakehost import FakeHost

#: Subject ids, which are pids on the host — and on both kernels: each
#: driver spawns A, B, C and G, then one process of its own (the agent,
#: the controller), then D and E as they arrive.
A, B, C, G, D, E = 1, 2, 3, 4, 6, 7
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
        proc = self.kernel.spawn(f"s{sid}", spinner_behavior(), uid=sid)
        assert proc.pid == sid
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
        return self.agent.step.last_read[pid] == self.kapi.getrusage(pid)


class HostDriver(Driver):
    def __init__(self) -> None:
        self.host = FakeHost()
        for sid in SHARES:
            assert self.host.spawn(uid=sid) == sid
        self.host.controller = [self.host.spawn(sleeping=True)]
        self.obs = Observer()
        self.alps = HostAlps(
            dict(SHARES),
            quantum_s=0.01,
            observer=self.obs,
            overload=OverloadGuard(OverloadConfig(capacity=4)),
            sharetree=make_tree(),
            host=self.host,
        )
        self.policy = self.alps.policy

    def quantum(self) -> None:
        # One iteration of HostAlps.run's loop.
        self.host.sleep(self.alps.quantum_us)
        self.policy.wake(self.alps._now())
        self.alps._one_quantum()

    def submit(self, sid: int, share: int, path=None) -> bool:
        assert self.host.spawn(uid=sid) == sid
        return self.alps.submit_pid(sid, share, path=path)

    def kill(self, sid: int) -> None:
        self.host.exit(sid)

    def stopped(self, sid: int) -> bool:
        return sid in self.host.stopped

    def baseline_is_fresh(self, sid: int) -> bool:
        return self.alps.step.last_read[sid] == self.host.usage(sid)


def test_both_drivers_enact_one_policy():
    sim, host = SimDriver(), HostDriver()
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
    assert host.host.sent[-1][1:] == (A, signal.SIGCONT)
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


def test_host_refuses_a_dead_arrival_under_a_guard():
    """A pid gone before admission does not join and is not reported
    as admitted."""
    host = FakeHost()
    a, gone = host.spawn(), host.spawn()
    host.exit(gone)
    obs = Observer()
    alps = HostAlps(
        {a: 1}, quantum_s=0.05, observer=obs, overload=OverloadGuard(), host=host
    )
    assert not alps.submit_pid(gone, 1)
    assert gone not in alps.core.subjects
    assert policy_events(obs) == []


def test_host_path_errors_are_host_errors():
    host = HostDriver()
    with pytest.raises(HostOSError):
        host.alps.submit_pid(D, 1, path="nowhere/x")
    with pytest.raises(HostOSError):
        host.alps.set_tree_weight("nowhere", 2)
