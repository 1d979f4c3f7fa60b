"""Crash safety for the ALPS drivers (docs/resilience.md).

Three layers, composable and individually optional:

* :mod:`repro.resilience.journal` — write-ahead journaling of agent
  scheduling state with checksummed records and torn-tail-tolerant
  recovery, so a crashed driver resumes the same cycle with its
  fairness debt intact;
* :mod:`repro.resilience.supervisor` — heartbeats, bounded
  exponential-backoff restarts, and restart-budget escalation into a
  safe resume-all-and-stand-down degraded mode, for both the simulated
  agent and the live Linux controller;
* :mod:`repro.resilience.chaos` + :mod:`repro.resilience.invariants` —
  seeded randomized fault campaigns whose episodes are audited by five
  machine-checked invariants over the obs event log and final kernel
  state (``repro chaos run|report``).
"""

from repro.resilience.invariants import (
    InvariantResult,
    evaluate_episode_invariants,
)
from repro.resilience.journal import (
    FileJournal,
    MemoryJournal,
    RecoveredJournal,
    SNAPSHOT_VERSION,
    core_snapshot,
    encode_record,
    recover_journal,
    restore_core,
    validate_snapshot,
)
from repro.resilience.supervisor import (
    RestartDecision,
    RestartPolicy,
    SupervisedAlpsBehavior,
    SupervisedHostAlps,
    Supervisor,
    SupervisorState,
)

#: Chaos names resolved lazily (PEP 562): :mod:`repro.resilience.chaos`
#: imports the workload/experiment stack, which itself imports the agent
#: — and the agent imports this package for the journal codec.  Lazy
#: loading keeps ``import repro.alps.agent`` cycle-free.
_CHAOS_EXPORTS = (
    "CHAOS_EXPERIMENT",
    "attained_error_pct",
    "ChaosEpisode",
    "ChaosReport",
    "episode_plan",
    "run_chaos_campaign",
    "run_chaos_episode",
)


def __getattr__(name: str):
    if name in _CHAOS_EXPORTS:
        from repro.resilience import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FileJournal",
    "InvariantResult",
    "MemoryJournal",
    "RecoveredJournal",
    "RestartDecision",
    "RestartPolicy",
    "SNAPSHOT_VERSION",
    "SupervisedAlpsBehavior",
    "SupervisedHostAlps",
    "Supervisor",
    "SupervisorState",
    "core_snapshot",
    "encode_record",
    "evaluate_episode_invariants",
    "recover_journal",
    "restore_core",
    "validate_snapshot",
    *_CHAOS_EXPORTS,
]
