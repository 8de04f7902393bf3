"""PID namespaces with forced-ID allocation.

Process and thread IDs are immutable state objects in MCR: servers stash
pids in global data structures, so the new version's worker processes must
receive *the same pids* as their old-version counterparts.  On Linux MCR
does this the CRIU way, via PID namespaces and ``ns_last_pid``; here the
namespace exposes ``force_next_pid`` with the same contract: the next fork
in the namespace returns the requested id, which must not be in use.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.errors import SimError


class PidNamespace:
    """Allocates process ids; supports CRIU-style forced ids."""

    def __init__(self, first_pid: int = 100) -> None:
        self._next_pid = first_pid
        self._in_use: Set[int] = set()
        self._forced: Optional[int] = None

    def force_next_pid(self, pid: int) -> None:
        """The next allocation must return ``pid`` (ns_last_pid analogue)."""
        if pid in self._in_use:
            raise SimError(f"cannot force pid {pid}: already in use")
        self._forced = pid

    def allocate(self) -> int:
        if self._forced is not None:
            pid = self._forced
            self._forced = None
            self._in_use.add(pid)
            return pid
        while self._next_pid in self._in_use:
            self._next_pid += 1
        pid = self._next_pid
        self._next_pid += 1
        self._in_use.add(pid)
        return pid

    def release(self, pid: int) -> None:
        self._in_use.discard(pid)
