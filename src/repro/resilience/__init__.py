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

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "CHAOS_EXPERIMENT": "repro.resilience.chaos",
    "ChaosEpisode": "repro.resilience.chaos",
    "ChaosReport": "repro.resilience.chaos",
    "FileJournal": "repro.resilience.journal",
    "InvariantResult": "repro.resilience.invariants",
    "MemoryJournal": "repro.resilience.journal",
    "RecoveredJournal": "repro.resilience.journal",
    "RestartDecision": "repro.resilience.supervisor",
    "RestartPolicy": "repro.resilience.supervisor",
    "SNAPSHOT_VERSION": "repro.resilience.journal",
    "SupervisedAlpsBehavior": "repro.resilience.supervisor",
    "SupervisedHostAlps": "repro.resilience.supervisor",
    "Supervisor": "repro.resilience.supervisor",
    "SupervisorState": "repro.resilience.supervisor",
    "attained_error_pct": "repro.resilience.chaos",
    "core_snapshot": "repro.resilience.journal",
    "encode_record": "repro.resilience.journal",
    "episode_plan": "repro.resilience.chaos",
    "evaluate_episode_invariants": "repro.resilience.invariants",
    "recover_journal": "repro.resilience.journal",
    "restore_core": "repro.resilience.journal",
    "run_chaos_campaign": "repro.resilience.chaos",
    "run_chaos_episode": "repro.resilience.chaos",
    "validate_snapshot": "repro.resilience.journal",
})
