"""The startup log: recorded startup-time operations of the old version.

During startup MCR records every syscall each thread performs, until that
thread reaches its first quiescent point.  Each record carries the issuing
process (by pid — pids are mirrored into the new version, so the pid is a
stable cross-version key), the thread's call-stack ID, sanitized arguments,
the sanitized result, and which immutable identifiers the call created
(an fd number or a child pid).

Replay consumes records by ``(pid, stack_id, name)`` match rather than by
global order, which tolerates benign reordering across versions while
still flagging omissions (unconsumed immutable-creating records at the end
of control migration) as conflicts.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

# Syscalls whose *result* is a new file descriptor.
FD_CREATING = {"socket", "open", "connect", "accept", "epoll_create"}
# Syscalls whose result is a pair of fds.
FD_PAIR_CREATING = {"socketpair"}
# Syscalls whose result is a new (immutable) process id.
PID_CREATING = {"fork"}


class SyscallRecord:
    """One recorded startup operation."""

    __slots__ = (
        "seq",
        "pid",
        "stack_names",
        "stack_id",
        "name",
        "args",
        "result",
        "created_fds",
        "created_pid",
        "consumed",
    )

    def __init__(
        self,
        seq: int,
        pid: int,
        stack_names: List[str],
        stack_id: int,
        name: str,
        args: Dict[str, Any],
        result: Any,
    ) -> None:
        self.seq = seq
        self.pid = pid
        self.stack_names = list(stack_names)
        self.stack_id = stack_id
        self.name = name
        self.args = args
        self.result = result
        self.created_fds: List[int] = []
        self.created_pid: Optional[int] = None
        if name in FD_CREATING and isinstance(result, int) and result >= 0:
            self.created_fds = [result]
        elif name in FD_PAIR_CREATING and isinstance(result, (tuple, list)):
            self.created_fds = [fd for fd in result if isinstance(fd, int)]
        elif name in PID_CREATING and isinstance(result, int):
            self.created_pid = result
        self.consumed = False

    @property
    def creates_immutable(self) -> bool:
        return bool(self.created_fds) or self.created_pid is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Record #{self.seq} pid={self.pid} {self.name} "
            f"stack={'/'.join(self.stack_names)} -> {self.result!r}>"
        )


class StartupLog:
    """All startup records of one program instance, indexed for replay."""

    def __init__(self) -> None:
        self._records: List[SyscallRecord] = []
        self._by_pid: Dict[int, List[SyscallRecord]] = {}
        self.memory_bytes = 0  # logical footprint (memory-usage benchmark)

    def record(
        self,
        pid: int,
        stack_names: List[str],
        stack_id: int,
        name: str,
        args: Dict[str, Any],
        result: Any,
    ) -> SyscallRecord:
        rec = SyscallRecord(
            len(self._records), pid, stack_names, stack_id, name, args, result
        )
        self._records.append(rec)
        self._by_pid.setdefault(pid, []).append(rec)
        # Rough in-memory footprint: fixed header + args/strings.
        self.memory_bytes += 96 + sum(len(str(v)) for v in args.values())
        return rec

    def __len__(self) -> int:
        return len(self._records)

    def records(self, pid: Optional[int] = None) -> Iterator[SyscallRecord]:
        source = self._records if pid is None else self._by_pid.get(pid, [])
        return iter(source)

    def find_match(self, pid: int, stack_id: int, name: str) -> Optional[SyscallRecord]:
        """First unconsumed record with the same context hash and syscall."""
        for rec in self._by_pid.get(pid, []):
            if not rec.consumed and rec.stack_id == stack_id and rec.name == name:
                return rec
        return None

    def unconsumed_immutable(self, pid: Optional[int] = None) -> List[SyscallRecord]:
        """Immutable-creating records replay never matched (omissions)."""
        return [
            rec
            for rec in self.records(pid)
            if not rec.consumed and rec.creates_immutable
        ]

    def startup_fds(self, pid: int) -> List[int]:
        """fd numbers created during startup by ``pid`` (separability set)."""
        fds: List[int] = []
        for rec in self._by_pid.get(pid, []):
            fds.extend(rec.created_fds)
        return fds

    def reset_consumption(self) -> None:
        for rec in self._records:
            rec.consumed = False

    def pids(self) -> List[int]:
        return sorted(self._by_pid)
