"""Overload — bounded degradation past the scalability knee.

Section 4.2's breakdown is a cliff: past the knee the agent starves in
multi-second outages and accuracy error climbs past 60 %.  The
graceful-degradation ladder (docs/overload.md) trades enforcement
granularity for stability — stretch, coarsen, shed — and should turn
the cliff into a plateau.

This benchmark runs the past-the-knee experiment at twice the observed
knee (n = 80 at Q = 10 ms) with the ladder on and off and gates both
halves of the claim:

* the protected run's error stays under ``REPRO_OVERLOAD_MAX_ERROR``
  (percent, default 45);
* the ladder-disabled control reproduces the cliff — error above
  ``REPRO_OVERLOAD_MIN_CLIFF`` (percent, default 55) — so the gate
  cannot pass by accidentally running a sustainable workload.
"""

import os

from benchmarks.conftest import emit
from repro.analysis.export import write_csv
from repro.experiments.overload import PAST_KNEE_N, OverloadComparison
from repro.experiments.registry import OVERLOAD

SEEDS = (0, 1, 2)

#: Max mean RMS accuracy error (%) allowed with the ladder engaged.
MAX_ERROR = float(os.environ.get("REPRO_OVERLOAD_MAX_ERROR", "45.0"))
#: Min error (%) the unprotected control must show (the cliff exists).
MIN_CLIFF = float(os.environ.get("REPRO_OVERLOAD_MIN_CLIFF", "55.0"))


def _sweep():
    """The ``overload`` row's full-protocol pair at 2x the knee, per seed."""
    return {
        seed: OVERLOAD.run([
            cell for cell in OVERLOAD.cells(full=True, seed=seed)
            if cell.params["n"] == PAST_KNEE_N
        ]).values
        for seed in SEEDS
    }


def test_ladder_bounds_past_knee_error(benchmark, results_dir):
    points = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    rows = []
    for seed, pair in points.items():
        emit(f"{OVERLOAD.title} (seed {seed})", OVERLOAD.render(pair))
        cmp = OverloadComparison(*pair)
        rows.append(
            {
                "seed": seed,
                "protected_err_pct": cmp.protected.mean_rms_error_pct,
                "control_err_pct": cmp.control.mean_rms_error_pct,
                "engagements": cmp.protected.engagements,
                "sheds": cmp.protected.sheds,
            }
        )
    write_csv(
        results_dir / "overload_degradation.csv",
        [
            {"seed": seed, **r}
            for seed, pair in points.items()
            for r in OVERLOAD.csv_rows(pair)
        ],
    )

    for r in rows:
        # 1. The ladder bounds the error past the knee.
        assert r["protected_err_pct"] <= MAX_ERROR, (
            f"seed {r['seed']}: protected error "
            f"{r['protected_err_pct']:.1f}% exceeds "
            f"REPRO_OVERLOAD_MAX_ERROR={MAX_ERROR}"
        )
        # 2. The control reproduces the seed's cliff.
        assert r["control_err_pct"] >= MIN_CLIFF, (
            f"seed {r['seed']}: control error {r['control_err_pct']:.1f}% "
            f"below REPRO_OVERLOAD_MIN_CLIFF={MIN_CLIFF} — "
            "the workload is not past the knee"
        )
        # 3. The ladder actually engaged (the bound is not vacuous).
        assert r["engagements"] >= 1 and r["sheds"] >= 1, (
            f"seed {r['seed']}: ladder never engaged/shed "
            f"(engagements={r['engagements']}, sheds={r['sheds']})"
        )
