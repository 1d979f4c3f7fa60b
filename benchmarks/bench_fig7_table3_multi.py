"""Figure 7 + Table 3 — multiple concurrent ALPS schedulers.

Three phased applications (A{7,8,9} at t=0, B{4,5,6} at 3 s, C{1,2,3}
at 6 s), each under its own ALPS.  Reproduction targets: within every
group and phase, the fraction of the group's CPU each process receives
matches its share to within a few percent relative error (paper:
average 0.93 %, max 3.3 %).
"""

import numpy as np

from benchmarks.conftest import reproduce
from repro.experiments.registry import FIG7


def test_figure7_table3_multi_alps(benchmark, results_dir):
    (result,) = reproduce(benchmark, results_dir, FIG7, "table3_multi.csv")
    table = result.table3()

    errors = [
        row[f"phase{p}_relerr"]
        for row in table
        for p in (1, 2, 3)
        if row[f"phase{p}_relerr"] is not None
    ]
    assert max(errors) < 6.0  # paper max: 3.3 %
    assert np.mean(errors) < 3.0  # paper mean: 0.93 %
