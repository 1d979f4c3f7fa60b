"""Process control block and process states."""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.behaviors import Behavior
    from repro.sim.event_queue import EventHandle


#: "None" in an integer column (no boost, no deadline): every real
#: value is >= 0.
NO_VALUE = -1


class ProcState(enum.Enum):
    """Lifecycle states of a simulated process.

    ``STOPPED`` (job control) is modelled as an orthogonal flag on the
    PCB rather than a state, matching UNIX where a process can be
    simultaneously sleeping and stopped; this enum covers the scheduling
    dimension only.
    """

    RUNNABLE = "runnable"
    RUNNING = "running"
    SLEEPING = "sleeping"
    ZOMBIE = "zombie"


@dataclass(slots=True, eq=False)
class Process:
    """Process control block.

    Time fields are integer microseconds of virtual time.  ``estcpu``
    follows the BSD convention: one unit per statclock tick of CPU
    consumed, decayed once per second.  The three fields that decay
    recomputes do not live on the PCB: :attr:`estcpu`,
    :attr:`priority` and :attr:`boost_priority` are properties over row
    :attr:`slot` of a column each — the owning kernel's (so the
    per-second decay is one vector pass over those columns), or a
    private one-element column for a free-standing PCB.

    Equality is identity (``eq=False``): pids are unique, so two PCBs
    are the same process iff they are the same object, and run-queue /
    wait-channel removals compare pointers instead of building a
    25-field tuple per element walked.
    """

    pid: int
    name: str
    uid: int
    nice: int
    behavior: "Behavior"
    state: ProcState = ProcState.RUNNABLE
    #: Job-control stop flag (SIGSTOP/SIGCONT), orthogonal to state.
    stopped: bool = False
    #: Set when a stopped process's sleep expired; it becomes runnable
    #: immediately upon SIGCONT.
    ready_while_stopped: bool = False

    # -- scheduler state ------------------------------------------------
    #: Row of this process in its kernel's columns: dense, in spawn
    #: order (= process-table order), never reused after exit.
    slot: int = 0
    #: The column holding :attr:`estcpu` at row :attr:`slot`.
    estcpu_column: array = field(
        default_factory=lambda: array("d", (0.0,)), repr=False
    )
    #: The column holding :attr:`priority` at row :attr:`slot`.
    priority_column: array = field(
        default_factory=lambda: array("q", (0,)), repr=False
    )
    #: The column holding :attr:`boost_priority` at row :attr:`slot`,
    #: :data:`NO_VALUE` standing for None.
    boost_column: array = field(
        default_factory=lambda: array("q", (NO_VALUE,)), repr=False
    )
    #: Seconds spent sleeping/stopped (drives wakeup decay).  Under the
    #: lazy-decay fast path this is materialised on demand from
    #: :attr:`park_epoch`; read it through ``Kernel.slptime_of``.
    slptime: int = 0
    #: ``schedcpu`` epoch at which this process entered the
    #: sleeping-or-stopped set (lazy-decay bookkeeping; None while the
    #: process is directly scheduled or the kernel runs strict/eager).
    park_epoch: Optional[int] = None
    #: Virtual runtime (used by the CFS-like policy only).
    vruntime: float = 0.0

    # -- accounting -----------------------------------------------------
    #: Total CPU time consumed (µs), excluding any in-flight run interval.
    cpu_time: int = 0
    #: Virtual time the current on-CPU interval began (valid iff RUNNING).
    run_start: int = 0
    #: Index of the CPU this process occupies (valid iff RUNNING).
    cpu_index: Optional[int] = None
    #: Number of involuntary context switches (preemptions).
    preemptions: int = 0
    #: Number of voluntary context switches (sleeps).
    voluntary_switches: int = 0

    # -- dispatch bookkeeping --------------------------------------------
    #: CPU demand (µs) remaining in the current Compute action.
    pending_burst_us: int = 0
    #: Wait channel name while SLEEPING (kvm-visible).
    wait_channel: Optional[str] = None
    #: Pending sleep-timeout event (cancelled on external wakeup).
    sleep_handle: Optional["EventHandle"] = field(default=None, repr=False)
    #: Pending burst-completion event while RUNNING.
    burst_handle: Optional["EventHandle"] = field(default=None, repr=False)
    #: Precomputed trace tags (avoids per-event f-string allocation on
    #: the dispatch hot path; set once at spawn).
    tag_burst: str = ""
    tag_wake: str = ""
    #: Exit status (valid once ZOMBIE).
    exit_status: int = 0

    @property
    def estcpu(self) -> float:
        """Decayed CPU usage estimate, in statclock ticks."""
        return self.estcpu_column[self.slot]

    @estcpu.setter
    def estcpu(self, value: float) -> None:
        self.estcpu_column[self.slot] = value

    @property
    def priority(self) -> int:
        """Scheduling priority (0 best … ``maxpri`` worst)."""
        return self.priority_column[self.slot]

    @priority.setter
    def priority(self, value: int) -> None:
        self.priority_column[self.slot] = value

    @property
    def boost_priority(self) -> Optional[int]:
        """Kernel wakeup-priority boost; set when waking from a voluntary
        sleep, consumed at first dispatch (4.4BSD tsleep priority)."""
        boost = self.boost_column[self.slot]
        return None if boost == NO_VALUE else boost

    @boost_priority.setter
    def boost_priority(self, value: Optional[int]) -> None:
        self.boost_column[self.slot] = NO_VALUE if value is None else value

    @property
    def alive(self) -> bool:
        """True until the process exits."""
        return self.state is not ProcState.ZOMBIE

    @property
    def runnable(self) -> bool:
        """True if the process may be placed on a run queue."""
        return self.state is ProcState.RUNNABLE and not self.stopped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "T" if self.stopped else ""
        return (
            f"Process(pid={self.pid}, name={self.name!r}, state={self.state.value}"
            f"{'+' + flags if flags else ''}, pri={self.priority}, "
            f"cpu={self.cpu_time})"
        )
