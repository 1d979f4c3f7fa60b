"""Section 5 — shared web server isolation with ALPS.

Three prefork sites (users) on one CPU, RUBBoS-like dynamic content,
closed-loop clients.  Reproduction targets: without ALPS the kernel
divides throughput roughly evenly (paper: {29, 30, 40} req/s); with one
ALPS scheduling the users at shares {1, 2, 3} and Q = 100 ms the
throughputs reapportion to ≈ 1:2:3 (paper: {18, 35, 53} req/s) with
small overhead.
"""

import pytest

from benchmarks.conftest import reproduce
from repro.experiments.registry import SEC5


def test_section5_webserver(benchmark, results_dir):
    (result,) = reproduce(benchmark, results_dir, SEC5, "sec5_webserver.csv")

    # Kernel-only: roughly even split.
    for f in result.baseline_fractions:
        assert f == pytest.approx(1 / 3, abs=0.08)
    # With ALPS: 1:2:3.
    assert result.alps_fractions[0] == pytest.approx(1 / 6, abs=0.04)
    assert result.alps_fractions[1] == pytest.approx(2 / 6, abs=0.04)
    assert result.alps_fractions[2] == pytest.approx(3 / 6, abs=0.04)
    # Total service rate preserved (work-conserving reapportionment).
    assert sum(result.alps_rps) > 0.8 * sum(result.baseline_rps)
    assert result.alps_overhead_pct < 2.0
