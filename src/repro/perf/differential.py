"""Strict-vs-optimized differential equivalence harness.

Every fast path added to the simulation substrate must be *schedule
invisible*: for equal seeds, a workload must produce exactly the same
schedule whether the kernel runs its original eager bookkeeping
(``KernelConfig(strict=True)``) or the optimized lazy path (the
default).  This module makes that claim executable:

* :func:`fingerprint_run` runs one Table 2 workload to a horizon with
  full event tracing on and serializes everything observable — the
  per-cycle consumption log, the event trace, the event count and the
  final clock — into one byte string;
* :func:`differential_check` sweeps the Table 2 workload matrix times
  a seed set and compares the strict and optimized fingerprints
  byte-for-byte.

A mismatch fails loudly with the first differing workload cell; the
golden tests in ``tests/perf/test_differential_goldens.py`` keep the
sweep in CI.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.alps.config import AlpsConfig
from repro.alps.instrumentation import CycleLog
from repro.kernel.kconfig import KernelConfig
from repro.sim.trace import Tracer
from repro.units import ms, sec
from repro.workloads.shares import DISTRIBUTIONS, ShareDistribution, workload_shares
from repro.workloads.scenarios import build_controlled_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan

#: Workload sizes of the Table 2 matrix.
TABLE2_SIZES = (5, 10, 20)

#: Default simulated horizon of one differential cell.
DEFAULT_HORIZON_US = sec(5)


def serialize_cycle_log(log: CycleLog) -> bytes:
    """Stable byte serialization of a cycle log.

    One line per cycle; mappings are emitted in sorted key order so the
    bytes do not depend on dict insertion history.
    """
    lines = []
    for rec in log:
        consumed = ",".join(f"{k}:{v}" for k, v in sorted(rec.consumed.items()))
        blocked = ",".join(
            f"{k}:{v}" for k, v in sorted(rec.blocked_quanta.items())
        )
        shares = ",".join(f"{k}:{v}" for k, v in sorted(rec.shares.items()))
        lines.append(
            f"{rec.index} {rec.end_time} q={rec.quantum_us} "
            f"consumed[{consumed}] blocked[{blocked}] shares[{shares}]"
        )
    return "\n".join(lines).encode()


@dataclass(frozen=True)
class RunFingerprint:
    """Everything observable about one simulated run."""

    cycle_log: bytes
    trace: bytes
    events: int
    final_now: int

    def digest(self) -> str:
        """Short hex digest over the whole fingerprint (for reporting)."""
        h = hashlib.sha256()
        h.update(self.cycle_log)
        h.update(b"\x00")
        h.update(self.trace)
        h.update(f"\x00{self.events}\x00{self.final_now}".encode())
        return h.hexdigest()[:16]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunFingerprint):
            return NotImplemented
        return (
            self.cycle_log == other.cycle_log
            and self.trace == other.trace
            and self.events == other.events
            and self.final_now == other.final_now
        )

    def __hash__(self) -> int:
        return hash((self.cycle_log, self.trace, self.events, self.final_now))


def fingerprint_run(
    shares: Sequence[int],
    *,
    seed: int = 0,
    strict: bool = False,
    backend: Optional[str] = None,
    quantum_us: int = ms(10),
    horizon_us: int = DEFAULT_HORIZON_US,
    resilience: bool = False,
    overload: bool = False,
    obs: bool = False,
    sharetree: bool = False,
    fault_plan: Optional["FaultPlan"] = None,
) -> RunFingerprint:
    """Run one controlled workload and fingerprint its schedule.

    ``strict=True`` selects the kernel's original eager bookkeeping;
    ``strict=False`` the optimized lazy path.  ``backend`` names a
    concrete kernel backend (``"strict"``/``"optimized"``/``"batch"``,
    see :data:`repro.kernel.KERNEL_BACKENDS`) and overrides ``strict``
    when given.  Everything else is held identical, so any fingerprint
    difference is a fast-path bug.

    ``resilience=True`` additionally attaches the crash-safety stack —
    a state journal and a supervision wrapper (no fault plan, so
    neither ever acts) — which must *also* be schedule-invisible: the
    fingerprint with the stack on must equal the fingerprint with it
    off, byte for byte (docs/resilience.md).

    ``overload=True`` attaches an armed :class:`OverloadGuard` with the
    default config.  Table 2 workloads never push the ladder off NORMAL,
    so the guarded fingerprint must equal the bare one byte for byte —
    the overload layer's schedule-invisibility claim (docs/overload.md).

    ``obs=True`` attaches a live :class:`repro.obs.Observer` to every
    layer — already proven schedule-invisible in isolation; here it
    stacks with the backend sweep.

    ``sharetree=True`` attaches a flat one-level
    :class:`repro.sharetree.ShareTree` built from the same shares.  The
    tree resolves each leaf's effective share to the raw weight verbatim
    (unreduced path-product arithmetic, docs/share_tree.md), so the
    treed fingerprint must equal the bare one byte for byte — the share
    tree's flat-equivalence claim.

    ``fault_plan`` runs the workload under deterministic fault
    injection.  Faulted runs are *not* expected to match clean runs;
    they must match each other across backends — the injector wraps the
    kapi every backend's agent reads through, so every backend replays
    the identical per-call fault RNG draw sequence.  The
    injector's realized fault trace is appended to the fingerprint's
    trace bytes so a divergence in fault realization fails the
    comparison even if the schedule happens to agree.
    """
    tracer = Tracer(enabled=True)
    journal = supervisor = guard = observer = None
    if resilience:
        from repro.resilience.journal import MemoryJournal
        from repro.resilience.supervisor import RestartPolicy, Supervisor

        journal = MemoryJournal()
        supervisor = Supervisor(RestartPolicy(), quantum_us=quantum_us)
    if overload:
        from repro.overload import OverloadGuard

        guard = OverloadGuard()
    if obs:
        from repro.obs import Observer

        observer = Observer()
    tree = None
    if sharetree:
        from repro.sharetree import ShareTree

        tree = ShareTree.flat(shares)
    if backend is None:
        kernel_config = KernelConfig(strict=strict)
    else:
        kernel_config = KernelConfig(strict=strict, backend=backend)
    cw = build_controlled_workload(
        shares,
        AlpsConfig(quantum_us=quantum_us),
        seed=seed,
        kernel_config=kernel_config,
        tracer=tracer,
        journal=journal,
        supervisor=supervisor,
        overload=guard,
        observer=observer,
        sharetree=tree,
        fault_plan=fault_plan,
    )
    cw.engine.run_until(horizon_us)
    trace = "\n".join(tracer.lines()).encode()
    if cw.injector is not None:
        trace += b"\n--faults--\n" + "\n".join(
            cw.injector.trace_lines()
        ).encode()
    return RunFingerprint(
        cycle_log=serialize_cycle_log(cw.agent.cycle_log),
        trace=trace,
        events=cw.engine.events_processed,
        final_now=cw.engine.now,
    )


@dataclass(frozen=True)
class CellComparison:
    """Strict-vs-challenger outcome for one (model, n, seed) cell.

    The challenger is ``optimized`` by default; ``compare_cell``'s
    ``backend`` parameter swaps in any registered kernel backend (the
    ``optimized_digest`` field name is kept for report compatibility).
    """

    model: ShareDistribution
    n: int
    seed: int
    matches: bool
    strict_digest: str
    optimized_digest: str
    #: Human-oriented description of the first observed difference.
    detail: str = ""
    #: Fingerprint section holding the first diverging byte
    #: (``"cycle_log"`` or ``"trace"``; ``""`` when the divergence is
    #: in the scalar fields only).
    diverged_section: str = ""
    #: Offset of the first diverging byte within that section
    #: (-1 when no byte section diverges).
    diverged_byte: int = -1


def compare_cell(
    model: ShareDistribution,
    n: int,
    seed: int,
    *,
    quantum_us: int = ms(10),
    horizon_us: int = DEFAULT_HORIZON_US,
    backend: str = "optimized",
) -> CellComparison:
    """Fingerprint one workload cell under both paths and diff them.

    ``backend`` names the challenger compared against strict —
    ``optimized`` (the default fast path) or ``batch``.
    """
    shares = workload_shares(model, n)
    strict = fingerprint_run(
        shares,
        seed=seed,
        strict=True,
        quantum_us=quantum_us,
        horizon_us=horizon_us,
    )
    fast = fingerprint_run(
        shares,
        seed=seed,
        strict=False,
        backend=None if backend == "optimized" else backend,
        quantum_us=quantum_us,
        horizon_us=horizon_us,
    )
    detail = ""
    section, offset = "", -1
    if strict != fast:
        detail = describe_difference(strict, fast, right=backend)
        section, offset = first_divergent_byte(strict, fast)
    return CellComparison(
        model=model,
        n=n,
        seed=seed,
        matches=strict == fast,
        strict_digest=strict.digest(),
        optimized_digest=fast.digest(),
        detail=detail,
        diverged_section=section,
        diverged_byte=offset,
    )


def differential_check(
    *,
    models: Iterable[ShareDistribution] = DISTRIBUTIONS,
    sizes: Iterable[int] = TABLE2_SIZES,
    seeds: Iterable[int] = (0, 1, 2),
    quantum_us: int = ms(10),
    horizon_us: int = DEFAULT_HORIZON_US,
    backend: str = "optimized",
) -> list[CellComparison]:
    """Sweep the Table 2 matrix × seeds; return one comparison per cell."""
    return [
        compare_cell(
            model,
            n,
            seed,
            quantum_us=quantum_us,
            horizon_us=horizon_us,
            backend=backend,
        )
        for model in models
        for n in sizes
        for seed in seeds
    ]


def describe_difference(
    a: RunFingerprint,
    b: RunFingerprint,
    *,
    left: str = "strict",
    right: str = "optimized",
) -> str:
    """Locate the first diverging line between two fingerprints.

    ``left``/``right`` label the two runs in the message (backend
    names in the backend-matrix tests, strict/optimized here).
    """
    if a.events != b.events:
        return f"event counts differ: {left}={a.events} {right}={b.events}"
    if a.final_now != b.final_now:
        return f"final clocks differ: {left}={a.final_now} {right}={b.final_now}"
    for name, lbytes, rbytes in (
        ("cycle_log", a.cycle_log, b.cycle_log),
        ("trace", a.trace, b.trace),
    ):
        if lbytes == rbytes:
            continue
        for i, (la, lb) in enumerate(
            zip(lbytes.splitlines(), rbytes.splitlines())
        ):
            if la != lb:
                return (
                    f"{name} line {i}: {left}={la.decode()!r} "
                    f"{right}={lb.decode()!r}"
                )
        return f"{name} lengths differ: {len(lbytes)} vs {len(rbytes)} bytes"
    return "fingerprints differ"  # pragma: no cover - covered above


def first_divergent_byte(
    a: RunFingerprint, b: RunFingerprint
) -> tuple[str, int]:
    """Locate the first diverging *byte* between two fingerprints.

    Returns ``(section, offset)`` where ``section`` is ``"cycle_log"``
    or ``"trace"`` (checked in that order) and ``offset`` is the index
    of the first byte that differs; when one serialization is a strict
    prefix of the other, the offset is the shorter length.  Returns
    ``("", -1)`` when both byte sections agree — i.e. the fingerprints
    differ only in the scalar event count / final clock fields.
    """
    for name, lbytes, rbytes in (
        ("cycle_log", a.cycle_log, b.cycle_log),
        ("trace", a.trace, b.trace),
    ):
        if lbytes == rbytes:
            continue
        n = min(len(lbytes), len(rbytes))
        for i in range(n):
            if lbytes[i] != rbytes[i]:
                return name, i
        return name, n
    return "", -1


_first_difference = describe_difference
