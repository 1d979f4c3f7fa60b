"""Differential test: AlpsCore vs a naive oracle of Figure 3.

The oracle is a line-by-line transliteration of the paper's pseudo
code with none of the production implementation's structure (no
dataclasses, no decisions object, no logs).  Both are driven with the
same random measurement streams and must agree exactly on count,
tc, allowances, and eligibility at every step.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.alps.algorithm import AlpsCore, Measurement


class OracleAlps:
    """Naive reference implementation of Figure 3."""

    def __init__(self, shares: dict[int, int], quantum: int, optimized: bool):
        self.Q = quantum
        self.S = sum(shares.values())
        self.share = dict(shares)
        self.allowance = {i: float(s) for i, s in shares.items()}
        self.state = {i: "ineligible" for i in shares}
        self.update = {i: 0 for i in shares}
        self.count = 0
        self.tc = self.S * self.Q
        self.optimized = optimized

    def due(self) -> list[int]:
        self.count += 1
        out = []
        for i in self.share:
            if self.state[i] != "eligible":
                continue
            if self.optimized and self.update[i] > self.count:
                continue
            out.append(i)
        return out

    def step(self, readings: dict[int, tuple[int, bool]]) -> None:
        for i, (consumed, blocked) in readings.items():
            self.allowance[i] -= consumed / self.Q
            self.tc -= consumed
            if blocked:
                self.allowance[i] -= 1
                self.tc -= self.Q
        cycles = 0
        if self.tc <= 0:
            cycles = 1
            self.tc += self.S * self.Q
        for i in self.share:
            self.allowance[i] += self.share[i] * cycles
            self.state[i] = "eligible" if self.allowance[i] > 0 else "ineligible"
            if self.update[i] <= self.count or i in readings:
                self.update[i] = self.count + max(1, math.ceil(self.allowance[i]))


shares_strategy = st.dictionaries(
    keys=st.integers(min_value=1, max_value=6),
    values=st.integers(min_value=1, max_value=12),
    min_size=1,
    max_size=5,
)


@given(
    shares=shares_strategy,
    optimized=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=60, deadline=None)
def test_core_matches_oracle(shares, optimized, seed):
    import numpy as np

    Q = 10_000
    rng = np.random.default_rng(seed)
    core = AlpsCore(shares, Q, optimized=optimized)
    oracle = OracleAlps(shares, Q, optimized)

    for _ in range(50):
        due_core = core.begin_quantum()
        due_oracle = oracle.due()
        assert sorted(due_core) == sorted(due_oracle)
        measured = list(due_core)
        if rng.integers(0, 4) == 0:
            # A reading for a subject that was not due (what a restore
            # produces): complete_quantum must still visit it, after
            # the due ones.
            measured += [sid for sid in shares if sid not in due_core][:1]
        readings = {
            sid: (int(rng.integers(0, 2 * Q)), bool(rng.integers(0, 2)))
            for sid in measured
        }
        core.complete_quantum(
            {
                sid: Measurement(consumed_us=c, blocked=b)
                for sid, (c, b) in readings.items()
            }
        )
        oracle.step(readings)
        assert core.count == oracle.count
        assert core.tc == oracle.tc
        for sid in shares:
            assert math.isclose(
                core.subjects[sid].allowance, oracle.allowance[sid],
                rel_tol=1e-12, abs_tol=1e-9,
            )
            assert (
                core.subjects[sid].state.value == oracle.state[sid]
            ), (sid, core.count)
