"""The HostAlps controller end to end.

The runs go on :class:`FakeHost` (the simulated kernel behind the host
port); one soak runs real pids: a controller subprocess is SIGKILLed
mid-run, and a second controller recovers from its journal.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import HostOSError
from repro.hostos.controller import HostAlps
from repro.hostos.procfs import proc_state
from repro.hostos.spawn import spawn_spinner
from repro.resilience.journal import FileJournal
from tests.hostos.fakehost import FakeHost


def test_rejects_bad_quantum():
    with pytest.raises(HostOSError):
        HostAlps({1: 1}, quantum_s=0)


def test_enforces_rough_proportions_live():
    host = FakeHost()
    a, b = host.spawn(), host.spawn()
    report = HostAlps({a: 1, b: 3}, quantum_s=0.05, host=host).run(4.0)
    assert report.fractions()[b] == pytest.approx(0.75, abs=0.03)
    assert report.cycles >= 2
    assert report.overhead_fraction < 0.10


def test_all_processes_resumed_on_exit():
    host = FakeHost()
    a, b = host.spawn(), host.spawn()
    HostAlps({a: 1, b: 9}, quantum_s=0.05, host=host).run(1.5)
    assert any(signo == signal.SIGSTOP for _, _, signo in host.sent)
    assert not host.stopped


def test_survives_controlled_process_death():
    host = FakeHost()
    a, b = host.spawn(), host.spawn()
    alps = HostAlps({a: 1, b: 1}, quantum_s=0.05, host=host)
    host.exit(a)
    report = alps.run(1.0)
    assert report.duration_s >= 1.0
    assert set(alps.core.subjects) == {b}


#: A controller over the pids in argv, journaling to argv[1].
CONTROLLER = """
import sys
from repro.hostos import HostAlps
from repro.resilience.journal import FileJournal
pids = [int(p) for p in sys.argv[2:]]
journal = FileJournal(sys.argv[1], fsync=False)
HostAlps(dict(zip(pids, (1, 2, 3))), quantum_s=0.05, journal=journal).run(60.0)
"""


@pytest.mark.hostos
def test_killed_controller_is_recovered_and_leaves_nothing_stopped(tmp_path):
    """Soak on real pids: SIGKILL a controller while it holds a spinner
    stopped; a second controller recovers from its journal, runs, and
    exits with no pid left in state ``T``."""
    path = str(tmp_path / "host.journal")
    procs = [spawn_spinner() for _ in range(3)]
    pids = [p.pid for p in procs]
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    controller = subprocess.Popen(
        [sys.executable, "-c", CONTROLLER, path, *map(str, pids)], env=env
    )
    try:
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            journaled = os.path.exists(path) and os.path.getsize(path) > 0
            if journaled and any(proc_state(pid) == "T" for pid in pids):
                break
            time.sleep(0.01)
        else:
            pytest.fail("the controller never stopped a spinner")
        controller.send_signal(signal.SIGKILL)
        controller.wait()
        second = HostAlps(
            dict(zip(pids, (1, 2, 3))),
            quantum_s=0.05,
            journal=FileJournal(path, fsync=False),
        )
        assert second.restore_from_journal()
        report = second.run(0.3)
        assert set(report.consumed_us) == set(pids)
        assert all(proc_state(pid) != "T" for pid in pids)
    finally:
        controller.kill()
        controller.wait()
        for p in procs:
            p.kill()
            p.wait()
