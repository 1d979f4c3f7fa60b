"""Host process-table scanning (the kvm_getprocs equivalent).

The paper's Section 5 implementation used FreeBSD's
``kvm_getprocs(KERN_PROC_UID)`` to enumerate a user's processes once
per second.  On Linux the equivalent is a /proc scan; these helpers
provide it for :class:`~repro.alps.subjects.UserSubject` membership on
:class:`~repro.hostos.controller.HostAlps` (through its host port,
:class:`~repro.hostos.port.ProcfsHost`), for
:class:`~repro.alps.subjects.PidGroupSubject` ``members`` callables,
and for ad-hoc tooling.
"""

from __future__ import annotations

import os
from typing import Iterator

from repro.errors import HostOSError


def iter_pids() -> Iterator[int]:
    """All numeric entries of /proc (live pids at scan time)."""
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            yield int(entry)


def uid_of(pid: int) -> int:
    """Real uid of ``pid`` (owner of its /proc directory)."""
    try:
        return os.stat(f"/proc/{pid}").st_uid
    except (FileNotFoundError, ProcessLookupError):
        raise HostOSError(f"no such process: {pid}") from None


def pids_of_uid(uid: int) -> list[int]:
    """All live pids owned by ``uid`` — kvm_getprocs(KERN_PROC_UID)."""
    out: list[int] = []
    for pid in iter_pids():
        try:
            if os.stat(f"/proc/{pid}").st_uid == uid:
                out.append(pid)
        except (FileNotFoundError, ProcessLookupError):
            continue  # raced with exit
    return out


def _ppid_of(pid: int) -> int:
    """Parent pid of ``pid`` (field 4 of its /proc stat line)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read().decode("ascii", errors="replace")
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        raise HostOSError(f"no such process: {pid}") from None
    return int(raw[raw.rindex(")") + 2 :].split()[1])  # field 4 follows the state


def children_of(parent_pid: int) -> list[int]:
    """Live direct children of ``parent_pid`` (via /proc stat ppid).

    Useful for controlling everything a master process forked (the
    paper's alternative to per-user principals).
    """
    out: list[int] = []
    for pid in iter_pids():
        try:
            if _ppid_of(pid) == parent_pid:
                out.append(pid)
        except HostOSError:
            continue  # raced with exit
    return out


def ancestors(pid: int) -> list[int]:
    """``pid`` and its ancestors, nearest first, stopping short of init
    (pid 1 ignores signals it installed no handler for)."""
    out: list[int] = []
    while pid > 1:
        out.append(pid)
        try:
            pid = _ppid_of(pid)
        except HostOSError:
            break
    return out
