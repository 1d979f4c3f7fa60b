"""Table 1's "measure n processes" ladder times the reads.

Its spinners are real processes.  Left running, they take the reader's
CPU, and the fitted per-process cost becomes the reader's wait for a
CPU: 20 times one read's cost on a 2-CPU host.  The ladder reads them
stopped, so its slope must stay near the cost of one read.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.experiments.table1_ops import _spinners, time_measure_ladder
from repro.hostos.procfs import read_proc_stat

pytestmark = pytest.mark.hostos

#: The fitted per-process slope may exceed the median cost of one read
#: of one process by at most this factor.
SLOPE_MAX_READS = 4.0


def test_measure_ladder_slope_is_the_cost_of_one_read():
    _, per_proc_us = time_measure_ladder(iterations=50)
    with _spinners(1) as (pid,):
        samples = []
        for _ in range(200):
            t0 = time.perf_counter()
            read_proc_stat(pid)
            samples.append(time.perf_counter() - t0)
    one_read_us = 1e6 * statistics.median(samples)
    assert per_proc_us <= SLOPE_MAX_READS * one_read_us, (per_proc_us, one_read_us)
