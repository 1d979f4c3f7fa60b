"""Baseline schedulers ALPS is compared against.

* :mod:`~repro.baselines.stride` — Waldspurger's stride scheduler, the
  canonical *in-kernel* deterministic proportional-share policy.  It
  bounds allocation error by one quantum and shows what kernel support
  buys over a user-level approach.
* :mod:`~repro.baselines.lottery` — randomized proportional share
  (lottery scheduling); probabilistically fair, higher variance.
* :mod:`~repro.baselines.duty_cycle` — a cpulimit-style user-level
  limiter that duty-cycles each process independently against a fixed
  cap.  Unlike ALPS it is not work-conserving: CPU released by one
  process is not re-apportioned to the others.

The "unoptimized ALPS" ablation (Section 2.3/3.2) is not a separate
module — construct :class:`~repro.alps.config.AlpsConfig` with
``optimized=False``.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "DutyCycleAgent": "repro.baselines.duty_cycle",
    "LotteryScheduler": "repro.baselines.lottery",
    "StrideScheduler": "repro.baselines.stride",
    "spawn_duty_cycle": "repro.baselines.duty_cycle",
})
