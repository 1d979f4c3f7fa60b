"""PCB equality is identity.

``Process`` is a dataclass with ``eq=False``: pids are unique, so "the
same process" means "the same object".  Run-queue and wait-channel
removals rely on this — ``deque.remove`` / ``list.remove`` compare
pointers instead of calling a field-by-field ``__eq__`` on every
element they walk.
"""

import pytest

from repro.kernel.process import Process
from repro.kernel.resident import ResidentProcess, ResidentStore
from repro.kernel.runqueue import RunQueue


def _process_twins():
    return [
        Process(pid=1, name="p", uid=0, nice=0, behavior=None) for _ in range(2)
    ]


def _resident_twins():
    # Separate stores so both rows can carry the same pid.
    return [
        ResidentProcess.attach(
            ResidentStore(), pid=1, name="p", uid=0, nice=0, behavior=None
        )
        for _ in range(2)
    ]


@pytest.mark.parametrize("cls", [Process, ResidentProcess])
def test_eq_is_object_identity(cls):
    assert cls.__eq__ is object.__eq__
    assert cls.__hash__ is object.__hash__


@pytest.mark.parametrize("twins", [_process_twins, _resident_twins])
def test_identical_fields_compare_unequal_and_hash(twins):
    a, b = twins()
    assert a == a
    assert a != b
    assert len({a, b}) == 2


def test_runqueue_removes_the_object_not_a_lookalike():
    a, b = _process_twins()
    a.priority = b.priority = 50
    rq = RunQueue()
    rq.insert(a)
    rq.insert(b)
    rq.remove(b)
    assert rq.pop_best() is a
    assert len(rq) == 0
