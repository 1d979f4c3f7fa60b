"""Table 1's timer-event probe with a second thread alive.

A process-directed SIGUSR1 may be delivered to any thread that does not
block it (numpy's BLAS workers, say).  Under ``SIG_IGN`` that thread
drops it, and the probe's ``sigtimedwait`` waits out its 1 s timeout.
The probe signals its own thread instead, so every event is caught.
"""

from __future__ import annotations

import threading
import time

from repro.experiments.table1_ops import time_timer_event


def test_timer_event_probe_is_not_dropped_by_another_thread():
    release = threading.Event()
    # Started before the probe blocks SIGUSR1, so it does not block it.
    helper = threading.Thread(target=release.wait)
    helper.start()
    try:
        t0 = time.perf_counter()
        time_timer_event(iterations=20)
        elapsed = time.perf_counter() - t0
    finally:
        release.set()
        helper.join()
    # 20 events take microseconds; one dropped signal alone costs 1 s.
    assert elapsed < 0.25
