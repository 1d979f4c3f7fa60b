"""Times at reference speed: the arithmetic, and that like work reads alike."""

import gc

import pytest

from benchmarks.ledger import refclock


def test_a_host_at_half_speed_reads_half_the_raw_time(monkeypatch):
    readings = iter([2 * refclock.REF_NOMINAL_S, 2 * refclock.REF_NOMINAL_S])
    monkeypatch.setattr(refclock, "sample", lambda rounds, collect=True: next(readings))
    timing = refclock.timed(lambda: "done")
    assert timing.result == "done"
    assert timing.seconds == pytest.approx(timing.raw_seconds / 2)
    assert timing.factor == pytest.approx(0.5)


def test_the_two_readings_are_averaged(monkeypatch):
    readings = iter([refclock.REF_NOMINAL_S, 3 * refclock.REF_NOMINAL_S])
    monkeypatch.setattr(refclock, "sample", lambda rounds, collect=True: next(readings))
    assert refclock.timed(lambda: None).factor == pytest.approx(0.5)


def test_the_readings_are_not_part_of_the_time():
    timing = refclock.timed(lambda: None, rounds=3)
    assert timing.raw_seconds < refclock.sample(1) / 10


def test_like_work_reads_alike_whatever_the_host_does():
    # Twenty reference loops are twenty nominal loops at reference speed,
    # however fast this host happens to run them.
    def work():
        gc.disable()  # as the readings are taken
        try:
            for _ in range(20):
                refclock.reference()
        finally:
            gc.enable()

    got = min(refclock.timed(work).seconds for _ in range(3))
    assert got == pytest.approx(20 * refclock.REF_NOMINAL_S, rel=0.2)
