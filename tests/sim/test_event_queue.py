"""Event queue ordering, cancellation, and stability."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import event_queue
from repro.sim.event_queue import EventQueue


def _noop(event):
    pass


def test_empty_queue():
    q = EventQueue()
    assert len(q) == 0
    assert q.pop() is None
    assert q.peek_time() is None


def test_orders_by_time():
    q = EventQueue()
    q.schedule(30, _noop, tag="c")
    q.schedule(10, _noop, tag="a")
    q.schedule(20, _noop, tag="b")
    assert [q.pop().tag for _ in range(3)] == ["a", "b", "c"]


def test_orders_by_priority_at_same_time():
    q = EventQueue()
    q.schedule(10, _noop, priority=5, tag="low")
    q.schedule(10, _noop, priority=1, tag="high")
    assert q.pop().tag == "high"
    assert q.pop().tag == "low"


def test_stable_fifo_for_ties():
    q = EventQueue()
    for i in range(10):
        q.schedule(7, _noop, tag=str(i))
    assert [q.pop().tag for _ in range(10)] == [str(i) for i in range(10)]


def test_negative_time_rejected():
    q = EventQueue()
    with pytest.raises(SimulationError):
        q.schedule(-1, _noop)


def test_cancel_removes_event():
    q = EventQueue()
    h = q.schedule(10, _noop, tag="x")
    q.schedule(20, _noop, tag="y")
    assert len(q) == 2
    h.cancel()
    assert len(q) == 1
    assert not h.active
    assert q.pop().tag == "y"


def test_cancel_twice_is_harmless():
    q = EventQueue()
    h = q.schedule(10, _noop)
    h.cancel()
    h.cancel()
    assert len(q) == 0


def test_cancel_after_fire_is_harmless():
    q = EventQueue()
    h = q.schedule(10, _noop)
    event = q.pop()
    assert event is not None
    h.cancel()  # already fired; must not corrupt the live count
    assert len(q) == 0


def test_peek_skips_cancelled():
    q = EventQueue()
    h = q.schedule(5, _noop)
    q.schedule(9, _noop, tag="live")
    h.cancel()
    assert q.peek_time() == 9


def test_clear():
    q = EventQueue()
    for t in (1, 2, 3):
        q.schedule(t, _noop)
    q.clear()
    assert len(q) == 0
    assert q.pop() is None


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_pop_order_is_sorted(times):
    q = EventQueue()
    for t in times:
        q.schedule(t, _noop)
    popped = []
    while True:
        e = q.pop()
        if e is None:
            break
        popped.append(e.time)
    assert popped == sorted(times)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=100),
    st.data(),
)
def test_cancellation_preserves_rest(times, data):
    q = EventQueue()
    handles = [q.schedule(t, _noop) for t in times]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(times) - 1), max_size=len(times))
    )
    for i in to_cancel:
        handles[i].cancel()
    expected = sorted(t for i, t in enumerate(times) if i not in to_cancel)
    popped = []
    while True:
        e = q.pop()
        if e is None:
            break
        popped.append(e.time)
    assert popped == expected
    assert len(q) == 0


def _random_walk(seed):
    """A seeded schedule/cancel/pop sequence, mostly cancels as the kernel's
    re-armed callouts make it; returns the popped ``(time, seq)`` order
    and the ``(heap, live)`` sizes seen after every cancel."""
    rng = random.Random(seed)
    q = EventQueue()
    handles = []
    popped, sizes = [], []
    for _ in range(4000):
        roll = rng.random()
        if roll < 0.45:
            handles.append(q.schedule(rng.randrange(10_000), _noop, rng.randrange(3)))
        elif roll < 0.9 and handles:
            handles.pop(rng.randrange(len(handles))).cancel()
            sizes.append((len(q._heap), len(q)))
        else:
            event = q.pop()
            if event is not None:
                popped.append((event.time, event.seq))
    while (event := q.pop()) is not None:
        popped.append((event.time, event.seq))
    return popped, sizes


@pytest.mark.parametrize("seed", range(5))
def test_compaction_keeps_the_pop_order_and_bounds_the_heap(seed, monkeypatch):
    slack = event_queue.COMPACT_MIN
    compacted, sizes = _random_walk(seed)
    assert all(heap <= 2 * live + slack for heap, live in sizes)
    monkeypatch.setattr(event_queue, "COMPACT_MIN", float("inf"))
    lazy, lazy_sizes = _random_walk(seed)
    assert compacted == lazy
    # The walk does pile up cancelled entries when nothing compacts them.
    assert max(heap - 2 * live for heap, live in lazy_sizes) > slack
