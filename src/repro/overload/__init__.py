"""Overload protection: admission control, starvation detection, and a
graceful-degradation ladder (docs/overload.md).

The paper's Section 4.2 shows ALPS falling off a cliff once the agent's
own work exceeds its fair share: the kernel deprioritises the agent,
measurements arrive late, and enforcement collapses.  This package is
the robustness layer that notices the collapse beginning (timer slip),
bounds the measurement set (admission control), and degrades enforcement
deliberately — stretch the quantum, coarsen measurement batching, shed
the lowest-share tail to best-effort — instead of wedging, then walks
back to full enforcement when the pressure clears.

The layer is schedule-invisible while the ladder sits at NORMAL: a run
with a guard attached and no overload is byte-identical to a bare run
(tests/overload/test_overload_differential.py).
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "AdmissionQueue": "repro.overload.admission",
    "DegradationLadder": "repro.overload.ladder",
    "OverloadConfig": "repro.overload.config",
    "OverloadGuard": "repro.overload.guard",
    "Rung": "repro.overload.ladder",
    "SlipMonitor": "repro.overload.slip",
})
