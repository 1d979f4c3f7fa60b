"""BSD decay-usage priority arithmetic.

Implements the classic 4.4BSD formulas (McKusick et al., ch. 4):

* ``p_usrpri = PUSER + p_estcpu / 4 + 2 * p_nice`` (clamped to MAXPRI)
* once per second: ``p_estcpu = (2*load / (2*load + 1)) * p_estcpu + p_nice``
* on wakeup after sleeping >= 1 s: the decay filter is applied once per
  second slept, approximating the usage the process would have shed.

The ``batched_*`` functions are the per-second step and the priority
formula over numpy vectors, bit-exact against the scalar ones.
"""

from __future__ import annotations

import numpy as np

from repro.kernel.kconfig import KernelConfig


def user_priority(cfg: KernelConfig, estcpu: float, nice: int) -> int:
    """Compute ``p_usrpri`` from estcpu and nice, clamped to the user range."""
    pri = cfg.puser + estcpu / cfg.estcpu_weight + cfg.nice_weight * nice
    if pri < 0:
        return 0
    if pri > cfg.maxpri:
        return cfg.maxpri
    return int(pri)


def decay_factor(load: float) -> float:
    """The per-second decay filter coefficient ``2L / (2L + 1)``.

    Under higher load the filter forgets more slowly, so accumulated
    usage penalises a process for longer — the property that ultimately
    erodes the ALPS process's scheduling advantage at scale.
    """
    if load < 0:
        raise ValueError(f"load must be >= 0, got {load}")
    return (2.0 * load) / (2.0 * load + 1.0)


def decay_estcpu(cfg: KernelConfig, estcpu: float, nice: int, load: float) -> float:
    """Apply one second's decay to ``estcpu`` (the ``schedcpu`` step)."""
    new = decay_factor(load) * estcpu + nice
    if new < 0.0:
        return 0.0
    return min(new, cfg.estcpu_limit)


def wakeup_decay(cfg: KernelConfig, estcpu: float, nice: int, load: float, slept_seconds: int) -> float:
    """Decay ``estcpu`` for a process that slept ``slept_seconds`` seconds.

    4.4BSD applies the per-second filter once for each second of sleep
    (``updatepri``), so long sleepers return at a much better priority.
    """
    new = estcpu
    for _ in range(min(slept_seconds, 64)):  # filter converges; cap the loop
        new = decay_factor(load) * new + nice
    if new < 0.0:
        return 0.0
    return min(new, cfg.estcpu_limit)


def charge_estcpu(cfg: KernelConfig, estcpu: float, ran_us: int) -> float:
    """Charge estcpu for ``ran_us`` microseconds of CPU consumption.

    BSD increments estcpu by one per statclock tick while running; we
    charge the equivalent amount analytically when the run interval ends
    (fractional ticks included, so short runs are not free).
    """
    new = estcpu + ran_us / cfg.tick_us
    return min(new, cfg.estcpu_limit)


def batched_decay(
    estcpu: np.ndarray,
    nice: np.ndarray,
    load: float,
    limit: float,
) -> np.ndarray:
    """One second of BSD decay over an estcpu vector.

    Elementwise-identical to :func:`decay_estcpu`: ``f*e + nice`` as
    two float64 ops (multiply then add, never fused), then the
    ``< 0 → 0`` and ``min(·, limit)`` clamps.  The property tests
    compare this against the scalar function value-for-value with
    ``==``, not with a tolerance.
    """
    factor = decay_factor(load)
    new = factor * estcpu + nice
    return np.minimum(np.where(new < 0.0, 0.0, new), limit)


def batched_user_priority(
    cfg: KernelConfig, estcpu: np.ndarray, nice: np.ndarray
) -> np.ndarray:
    """The BSD priority formula over vectors, clamped like the scalar.

    Matches :func:`user_priority` exactly: ``puser + estcpu/weight +
    nice_weight*nice`` evaluated left to right in float64, negative
    lanes clamped to 0, overlarge lanes to ``maxpri``, the rest
    truncated toward zero as ``int()`` does.
    """
    pri = cfg.puser + estcpu / cfg.estcpu_weight + cfg.nice_weight * nice
    truncated = pri.astype(np.int64)  # toward zero, like int()
    return np.where(pri < 0, 0, np.where(pri > cfg.maxpri, cfg.maxpri, truncated))
