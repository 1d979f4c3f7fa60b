"""Resource principals: what an ALPS schedules.

Sections 2–4 of the paper schedule individual processes; Section 5
generalises the principal to *a user* — every process owned by the user
counts against one allocation and is stopped/resumed as a group.  All
are modelled here behind one small interface both drivers consume.
Membership is read through the driver's process view (the simulated
``KernelAPI``, or /proc on Linux): only ``pid_exists`` and ``pids_of_uid``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional, Protocol
from typing import runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kapi import KernelAPI


@runtime_checkable
class Subject(Protocol):
    """A schedulable principal with a share of the CPU."""

    #: Unique id used as the key inside :class:`~repro.alps.algorithm.AlpsCore`.
    sid: int
    #: Integer share of CPU time.
    share: int

    def pids(self, kapi: "KernelAPI") -> list[int]:
        """Current live pids belonging to this principal."""
        ...

    def refresh(self, kapi: "KernelAPI") -> bool:
        """Re-enumerate membership; returns True if membership changed."""
        ...


class ProcessSubject:
    """A principal that is a single process (the paper's base case)."""

    __slots__ = ("sid", "share", "pid", "_alive", "_pids")

    def __init__(self, sid: int, share: int, pid: int) -> None:
        self.sid = sid
        self.share = share
        self.pid = pid
        self._alive = True
        # Membership never changes while alive (pids are not recycled),
        # so the singleton list is cached; callers must not mutate it.
        self._pids = [pid]

    def pids(self, kapi: "KernelAPI") -> list[int]:
        return self._pids if self._alive else []

    def refresh(self, kapi: "KernelAPI") -> bool:
        alive = kapi.pid_exists(self.pid)
        changed = alive != self._alive
        self._alive = alive
        return changed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessSubject(sid={self.sid}, share={self.share}, pid={self.pid})"


class UserSubject:
    """A principal that is a user: all of the user's processes share one
    allocation (Section 5's shared web server policy).

    Membership is refreshed lazily by the agent (once per
    ``principal_refresh_us``), mirroring the paper's once-per-second
    ``kvm_getprocs`` scan.
    """

    __slots__ = ("sid", "share", "uid", "_pids")

    def __init__(self, sid: int, share: int, uid: int) -> None:
        self.sid = sid
        self.share = share
        self.uid = uid
        self._pids: list[int] = []

    def pids(self, kapi: "KernelAPI") -> list[int]:
        return list(self._pids)

    def refresh(self, kapi: "KernelAPI") -> bool:
        new = sorted(kapi.pids_of_uid(self.uid))
        changed = new != self._pids
        self._pids = new
        return changed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UserSubject(sid={self.sid}, share={self.share}, uid={self.uid})"


class PidGroupSubject:
    """A principal that is an explicit set of pids sharing one allocation.

    ``members``, when given, is a zero-argument callable re-enumerating
    the set (e.g. every child of a master process); a refresh keeps only
    the pids the process view reports as existing.
    """

    __slots__ = ("sid", "share", "members", "_pids")

    def __init__(
        self,
        sid: int,
        share: int,
        pids: Iterable[int],
        members: Optional[Callable[[], Iterable[int]]] = None,
    ) -> None:
        self.sid = sid
        self.share = share
        self.members = members
        self._pids = sorted(pids)

    def pids(self, kapi: "KernelAPI") -> list[int]:
        return list(self._pids)

    def refresh(self, kapi: "KernelAPI") -> bool:
        found = self._pids if self.members is None else sorted(self.members())
        new = [pid for pid in found if kapi.pid_exists(pid)]
        changed = new != self._pids
        self._pids = new
        return changed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PidGroupSubject(sid={self.sid}, share={self.share}, pids={self._pids})"
