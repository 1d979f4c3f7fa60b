"""Seed audit: which registry rows' ``seed``/``seeds`` change nothing.

For every row whose point function takes a seed, its smallest cell runs
at a tiny horizon under two seeds.  The rows whose results come out
identical must be exactly :data:`INERT_SEEDS`: a newly inert seed
fails here, and so does a fixed one until it leaves the list.
"""

from __future__ import annotations

import inspect

from repro.experiments.registry import REGISTRY
from repro.sweep.codec import encode

#: Rows whose seed does not reach the simulation, and why.
INERT_SEEDS = {
    "fig4": "Table 2 spinners: the engine's rng is seeded, nothing draws from it",
    "fig5": "Table 2 spinners: the engine's rng is seeded, nothing draws from it",
    "ablation": "Table 2 spinners: the engine's rng is seeded, nothing draws",
    "fig6": "spinners and a fixed 80/240 ms compute/sleep cycle: no rng draw",
    "fig7": "three spinner groups with fixed start times: no rng draw",
    "fig8": "equal-share spinners: no rng draw",
    "overload": "equal-share spinners, ladder on or off: no rng draw",
    "sharetree": "equal-weight spinner leaves: no rng draw",
}

#: Per-row overrides that shrink the smallest cell to a tiny horizon.
TINY = {
    "fig4": {"cycles": 5},
    "fig5": {"cycles": 5},
    "ablation": {"cycles": 5},
    "fig6": {"total_cycles": 60, "warmup_cpu_s": 0.2},
    "fig7": {"phase_ends_s": (0.5, 1.0, 2.0)},
    "fig8": {"cycles": 5},
    "sec5": {"warmup_s": 0.5, "measure_s": 1.0},
    "overload": {"cycles": 5},
    "sharetree": {"cycles": 5, "horizon_s": 1.0},
}


def _run_at(row, seed: int):
    params = dict(row.cells(smoke=row.smoke)[0].params, **TINY[row.id])
    if "seeds" in params:
        params["seeds"] = (seed,)
    else:
        params["seed"] = seed
    result = encode(row.point_fn(**params))
    if isinstance(result, dict):
        result.pop("seed", None)
    return result


def test_inert_seeds_are_exactly_the_known_ones():
    seeded = [
        row for row in REGISTRY
        if {"seed", "seeds"} & set(inspect.signature(row.point_fn).parameters)
    ]
    assert {row.id for row in seeded} == set(TINY)
    inert = {row.id for row in seeded if _run_at(row, 0) == _run_at(row, 1)}
    assert inert == set(INERT_SEEDS)
