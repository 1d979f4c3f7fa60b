"""The overload guard: one object a driver threads through its loop.

The guard composes the three protection parts — admission queue, slip
monitor, degradation ladder — and keeps the shed-set bookkeeping both
drivers need.  It is deliberately passive: it never touches the kernel,
the clock, or the subjects.  The driver feeds it wake slip, asks it for
the current stretch/boost/shed decisions, and performs the enactment
itself (sim: :class:`~repro.alps.agent.AlpsAgent`; live:
:class:`~repro.hostos.controller.HostAlps`).  That keeps the guard pure
and identically testable for both drivers.
"""

from __future__ import annotations

from typing import Mapping

from repro.overload.admission import AdmissionQueue
from repro.overload.config import OverloadConfig
from repro.overload.ladder import DegradationLadder, Rung
from repro.overload.slip import SlipMonitor


class OverloadGuard:
    """Admission + slip + ladder, with shed bookkeeping."""

    __slots__ = (
        "config",
        "admission",
        "slip",
        "ladder",
        "_shed",
        "sheds",
        "readmits",
        "max_degraded_slip_quanta",
        "degraded_wakes",
        "degraded",
        "stretch_factor",
        "postpone_boost",
        "admission_paused",
    )

    def __init__(self, config: OverloadConfig | None = None) -> None:
        self.config = config if config is not None else OverloadConfig()
        self.admission = AdmissionQueue(self.config.capacity)
        self.slip = SlipMonitor(self.config.slip_alpha)
        self.ladder = DegradationLadder(self.config)
        #: Sids currently released to best-effort, in shed order.
        self._shed: list[int] = []
        self.sheds = 0
        self.readmits = 0
        #: Largest per-wake slip (in quanta) seen while the ladder was
        #: engaged — the ``bounded_timer_slip`` invariant's input.
        self.max_degraded_slip_quanta = 0.0
        self.degraded_wakes = 0
        self._follow_rung()

    # ------------------------------------------------------------------
    # Wake-time signal path
    # ------------------------------------------------------------------

    def observe_wake(self, slip_us: int, quantum_us: int) -> int:
        """Feed one wake's timer slip; returns the ladder delta (-1/0/+1).

        ``slip_us`` is actual minus scheduled delivery time; ``quantum_us``
        is the base (unstretched) quantum so slip units stay comparable
        across rungs.
        """
        slip = self.slip
        ewma = slip.observe(slip_us, quantum_us)
        if self.degraded:
            self.degraded_wakes += 1
            if slip.last_quanta > self.max_degraded_slip_quanta:
                self.max_degraded_slip_quanta = slip.last_quanta
        delta = self.ladder.update(ewma)
        if delta:
            self._follow_rung()
            if delta > 0 and self.admission_paused:
                # The driver sheds a quota during this same wake,
                # changing the population the EWMA was describing; start
                # the evidence fresh so each further shed round needs a
                # new episode of slip rather than riding the decaying
                # tail of the last one.
                slip.reset_ewma()
        return delta

    # ------------------------------------------------------------------
    # Current ladder effects
    # ------------------------------------------------------------------

    @property
    def rung(self) -> Rung:
        return self.ladder.rung

    def _follow_rung(self) -> None:
        """Cache what the current rung decides.  The rung only moves in
        :meth:`observe_wake`, so a driver's every wake reads these as
        plain attributes:

        ``degraded``: above NORMAL.  ``stretch_factor``: the
        effective-quantum multiplier.  ``postpone_boost``: the
        measurement-postponement multiplier.  ``admission_paused``:
        admissions hold while shedding — draining the queue into a group
        that is actively releasing members would thrash.
        """
        ladder = self.ladder
        rung = ladder.rung
        self.degraded = rung > Rung.NORMAL
        self.stretch_factor = ladder.stretch_factor
        self.postpone_boost = ladder.postpone_boost
        self.admission_paused = rung >= Rung.SHED

    # ------------------------------------------------------------------
    # Shed bookkeeping
    # ------------------------------------------------------------------

    def shed_quota(self, active: int) -> int:
        """How many members to shed on entering SHED (at least one,
        never the whole group)."""
        if active <= 1:
            return 0
        quota = int(active * self.config.shed_fraction)
        if quota < 1:
            quota = 1
        if quota >= active:
            quota = active - 1
        return quota

    def select_shed(self, shares: Mapping[int, int], count: int) -> list[int]:
        """Pick ``count`` sids to shed: lowest share first, then lowest
        sid — shedding the tail loses the least entitlement."""
        if count <= 0:
            return []
        ranked = sorted(shares, key=lambda sid: (shares[sid], sid))
        return ranked[:count]

    def note_shed(self, sid: int) -> None:
        self._shed.append(sid)
        self.sheds += 1

    def note_readmitted(self, sid: int) -> None:
        self._shed.remove(sid)
        self.readmits += 1

    def note_departed(self, sid: int) -> None:
        """A shed member died while best-effort; drop it from the set."""
        if sid in self._shed:
            self._shed.remove(sid)

    @property
    def shed_sids(self) -> tuple[int, ...]:
        """Currently-shed sids, oldest shed first."""
        return tuple(self._shed)

    @property
    def shed_outstanding(self) -> int:
        return len(self._shed)

    # ------------------------------------------------------------------
    # Invariant inputs / reporting
    # ------------------------------------------------------------------

    @property
    def slip_bound_ok(self) -> bool:
        """Whether degraded-mode slip stayed within the configured bound."""
        return self.max_degraded_slip_quanta <= self.config.max_degraded_slip_quanta

    @property
    def fully_recovered(self) -> bool:
        """NORMAL rung with no members still shed — full enforcement."""
        return not self.degraded and not self._shed

    def stats(self) -> dict[str, float]:
        """Merged counters for obs export, ``repro top`` and the chaos
        report."""
        out: dict[str, float] = {}
        for prefix, source in (
            ("admission.", self.admission.stats()),
            ("slip.", self.slip.stats()),
            ("ladder.", self.ladder.stats()),
        ):
            for key, value in source.items():
                out[prefix + key] = float(value)
        out["sheds"] = float(self.sheds)
        out["readmits"] = float(self.readmits)
        out["shed_outstanding"] = float(self.shed_outstanding)
        out["degraded_wakes"] = float(self.degraded_wakes)
        out["max_degraded_slip_quanta"] = self.max_degraded_slip_quanta
        return out
