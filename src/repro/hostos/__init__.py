"""Real-OS backend: ALPS as an actual user-level scheduler on Linux.

The paper's implementation runs on FreeBSD using getrusage/kvm and
SIGSTOP/SIGCONT.  This backend is the Linux equivalent: CPU time and
blocked-state come from ``/proc/<pid>/stat``, eligibility is enacted
with real signals, and the controller is the same
:class:`~repro.alps.algorithm.AlpsCore` used in simulation.  One
driver, :class:`HostAlps`, schedules single pids or the simulator's
multi-process :mod:`~repro.alps.subjects` (a user, a pid set — the
paper's Section 5 principals).  It makes every OS call through one
port, :class:`~repro.hostos.port.ProcfsHost`, which a test replaces.

Calibration note: Python's sampling-loop timing is the weak point of a
live reproduction (jitter of the interpreter and of ``time.sleep`` is
a significant fraction of small quanta), so quantitative experiments
use the simulator; this backend demonstrates the system end-to-end and
feeds the Table 1 micro-benchmarks.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "HostAlps": "repro.hostos.controller",
    "HostAlpsReport": "repro.hostos.controller",
    "ProcfsHost": "repro.hostos.port",
    "cpu_time_us": "repro.hostos.procfs",
    "is_alive": "repro.hostos.procfs",
    "is_blocked": "repro.hostos.procfs",
    "proc_state": "repro.hostos.procfs",
    "read_proc_stat": "repro.hostos.procfs",
    "spawn_io_child": "repro.hostos.spawn",
    "spawn_spinner": "repro.hostos.spawn",
})
