"""View/array coherence tests for the resident kernel backend.

:class:`~repro.kernel.resident.ResidentProcess` PCBs are *views*: the
scheduler-owned fields live in :class:`~repro.kernel.resident.
ResidentStore` columns and the PCB properties read and write the row
directly.  The whole backend rests on two claims, pinned here:

* **mutual observation** — interleaved writes through the view
  properties and direct mutations of the store (``array.array``
  indexing *and* zero-copy numpy views) observe each other exactly,
  with no shadow copy to go stale (Hypothesis, arbitrary interleaved
  scripts);
* **fresh-view equivalence** — a freshly attached view PCB matches a
  freshly constructed plain :class:`Process` field by field, since
  :meth:`ResidentProcess.attach` bypasses the dataclass ``__init__``
  and relies on the zeroed row for the array-backed defaults.

Plus the fault-injection seam: a faulted run replays the identical
per-call fault RNG draw sequence and schedule on every backend.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.process import Process, ProcState
from repro.kernel.resident import (
    ResidentProcess,
    ResidentStore,
)

# The array-backed fields, each with (value strategy, store column).
# ``wait_channel`` is handled separately (list column + has_channel
# mirror); boolean/optional/enum fields encode through the property.
_FIELD_COLUMNS = {
    "estcpu": "estcpu",
    "priority": "priority",
    "nice": "nice",
    "slptime": "slptime",
    "cpu_time": "cpu_time",
    "run_start": "run_start",
    "pending_burst_us": "pending_burst",
}

_FIELD_VALUES = {
    "estcpu": st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    "priority": st.integers(0, 127),
    "nice": st.integers(-20, 20),
    "slptime": st.integers(0, 10**6),
    "cpu_time": st.integers(0, 10**12),
    "run_start": st.integers(0, 10**12),
    "pending_burst_us": st.integers(0, 10**9),
}

# Operation alphabet: write a field through the view property, write
# the same column through array.array indexing, or write it through a
# zero-copy numpy view.  All three routes target the same buffer.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["prop", "array", "npview"]),
        st.integers(0, 10_000),  # row selector (mod population)
        st.sampled_from(sorted(_FIELD_COLUMNS)),
        st.integers(0, 10_000),  # value selector (drawn per field below)
    ),
    min_size=1,
    max_size=60,
)


def _attach_n(store: ResidentStore, n: int) -> list[ResidentProcess]:
    return [
        ResidentProcess.attach(
            store, pid=pid, name=f"p{pid}", uid=0, nice=0, behavior=None
        )
        for pid in range(1, n + 1)
    ]


@given(n=st.integers(1, 8), ops=_ops, data=st.data())
@settings(max_examples=200, deadline=None)
def test_view_and_array_mutations_observe_each_other(n, ops, data):
    """Arbitrary interleavings of property / array / numpy-view writes
    keep all three read routes in exact agreement with a shadow model."""
    store = ResidentStore(capacity=4)  # small so scripts cross a _grow
    procs = _attach_n(store, n)
    model = {field: [0] * n for field in _FIELD_COLUMNS}
    model["estcpu"] = [0.0] * n
    for route, row_sel, field, _ in ops:
        row = row_sel % n
        value = data.draw(_FIELD_VALUES[field], label=f"{field} value")
        column = _FIELD_COLUMNS[field]
        if route == "prop":
            setattr(procs[row], field, value)
        elif route == "array":
            getattr(store, column)[row] = value
        else:  # npview — fresh per write; grow replaces buffers
            store.np_view(column)[row] = value
        if field == "estcpu":
            # float64 round trip is exact for all three routes
            model[field][row] = float(np.float64(value))
        else:
            model[field][row] = value
        # Every route sees every other route's writes, exactly.
        for i, proc in enumerate(procs):
            expected = model[field][i]
            assert getattr(proc, field) == expected
            assert getattr(store, column)[i] == expected
            assert store.np_view(column)[i] == expected


@given(n=st.integers(1, 6), data=st.data())
@settings(max_examples=100, deadline=None)
def test_encoded_fields_round_trip_through_view_and_store(n, data):
    """state/stopped/boost_priority/wait_channel encode into array
    columns through the property; direct column writes decode back."""
    from repro.kernel.batch import NO_VALUE, STATE_CODES

    store = ResidentStore(capacity=2)
    procs = _attach_n(store, n)
    for _ in range(20):
        row = data.draw(st.integers(0, n - 1), label="row")
        proc = procs[row]
        state = data.draw(st.sampled_from(list(ProcState)), label="state")
        proc.state = state
        assert store.state[row] == STATE_CODES[state]
        assert proc.state is state
        stopped = data.draw(st.booleans(), label="stopped")
        proc.stopped = stopped
        assert store.stopped[row] == (1 if stopped else 0)
        assert proc.stopped is stopped
        boost = data.draw(
            st.one_of(st.none(), st.integers(0, 127)), label="boost"
        )
        proc.boost_priority = boost
        assert store.boost[row] == (NO_VALUE if boost is None else boost)
        assert proc.boost_priority == boost
        chan = data.draw(
            st.one_of(st.none(), st.just("chan")), label="channel"
        )
        proc.wait_channel = chan
        assert store.wait_channel[row] == chan
        assert store.has_channel[row] == (0 if chan is None else 1)
        assert proc.wait_channel == chan
        # Direct store writes are visible through the property too.
        store.boost[row] = NO_VALUE
        assert proc.boost_priority is None


def test_fresh_view_matches_fresh_plain_process_field_by_field():
    """attach() bypasses the dataclass __init__; the zeroed row must
    reproduce every Process field default exactly."""
    store = ResidentStore()
    view = ResidentProcess.attach(
        store, pid=7, name="v", uid=3, nice=-4, behavior=None
    )
    plain = Process(pid=7, name="v", uid=3, nice=-4, behavior=None)
    for f in dataclass_fields(Process):
        got, want = getattr(view, f.name), getattr(plain, f.name)
        assert got == want, f"{f.name}: view={got!r} plain={want!r}"
        assert type(got) is type(want), (
            f"{f.name}: view type {type(got)} != plain type {type(want)}"
        )
    assert view.estcpu == plain.estcpu == 0.0  # a property, not a field
    assert view.alive and plain.alive
    assert view.runnable == plain.runnable


def test_store_grow_preserves_rows_and_refreshes_views():
    store = ResidentStore(capacity=2)
    procs = _attach_n(store, 2)
    procs[0].estcpu = 1.5
    procs[1].priority = 60
    procs[1].slptime = 9
    stale = store.np_view("slptime")
    _attach_n_more = ResidentProcess.attach(
        store, pid=99, name="g", uid=0, nice=0, behavior=None
    )
    assert store.capacity == 4  # grew
    # Values survived the buffer replacement...
    assert procs[0].estcpu == 1.5
    assert procs[1].priority == 60
    assert procs[1].slptime == 9
    assert _attach_n_more.estcpu == 0.0
    # ...and a fresh view sees them; the pre-grow view is stale by
    # design (it aliases the replaced buffer).
    assert store.np_view("estcpu")[0] == 1.5
    assert store.np_view("priority")[1] == 60
    assert store.np_view("slptime")[1] == 9
    stale[1] = 7
    assert procs[1].slptime == 9


def test_kernel_columns_grow_in_place_and_refuse_a_live_view():
    """``estcpu``/``nice``/``priority``/``boost`` are the base kernel's
    buffers: one append per row, same object before and after, and no
    allocation while a numpy view of them is alive (a replaced buffer
    would be a second copy)."""
    from repro.kernel.resident import _KERNEL_COLUMNS

    assert _KERNEL_COLUMNS == ("estcpu", "nice", "priority", "boost")
    for name in _KERNEL_COLUMNS:
        store = ResidentStore(capacity=2)
        column = getattr(store, name)
        _attach_n(store, 5)
        assert getattr(store, name) is column
        assert len(column) == store.n == 5
        live = store.np_view(name)
        with pytest.raises(BufferError):
            ResidentProcess.attach(
                store, pid=99, name="g", uid=0, nice=0, behavior=None
            )
        del live


@pytest.mark.parametrize("backend", ["batch", "resident"])
def test_faulted_resident_fingerprint_matches_strict(backend):
    """Under an active fault plan every backend must replay the exact
    same fault realization and schedule."""
    from repro.faults.plan import FaultPlan, ProcessCrash
    from repro.perf.differential import describe_difference, fingerprint_run
    from repro.units import sec
    from repro.workloads.shares import ShareDistribution, workload_shares

    plan = FaultPlan(
        seed=3,
        crashes=(ProcessCrash(400_000, 1),),
        signal_drop_prob=0.05,
        rusage_fail_prob=0.02,
    )
    shares = workload_shares(ShareDistribution.SKEWED, 5)
    kwargs = dict(seed=0, horizon_us=sec(2), fault_plan=plan)
    reference = fingerprint_run(shares, backend="strict", **kwargs)
    challenger = fingerprint_run(shares, backend=backend, **kwargs)
    assert challenger == reference, describe_difference(
        reference, challenger, left="strict", right=backend
    )
