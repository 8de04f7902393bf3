"""Immutable state objects: inventory, inheritance, and separability.

At update time MCR builds an inventory of the old version's immutable
objects (paper §5):

* every open **file descriptor** in every process of the old tree (they
  all reference in-kernel state that must survive);
* every **process id** in the old tree (servers stash pids in globals);
* **memory addresses** flagged immutable by the conservative analysis
  (handled by ``realloc``/tracing, referenced here for bookkeeping).

*Global inheritance*: the first process of the new version receives all
old fds — over a Unix-domain socket, with each message carrying the source
``(pid, fd)`` identity — into a **stash**: its own fd range, above the
reserved startup range (``fdtable.STASH_BASE`` and up).  fork propagates
the stash down the new hierarchy for free — by reference, every table of
the new tree sharing one stash layer; replay *claims* entries out of the
stash onto their original numbers; whatever is left unclaimed when
control migration completes is garbage-collected.

*Global separability*: claimed numbers are blocked from reuse, so a
startup-time descriptor number can never be recycled into ambiguity.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.kernel.process import Process


class FdEntry:
    """One inherited descriptor: its source identity and kernel object."""

    __slots__ = ("src_pid", "src_fd", "obj", "startup")

    def __init__(self, src_pid: int, src_fd: int, obj: Any, startup: bool) -> None:
        self.src_pid = src_pid
        self.src_fd = src_fd
        self.obj = obj
        self.startup = startup  # created during old-version startup?

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FdEntry {self.src_pid}:{self.src_fd} {self.obj.kind}>"


class ImmutableInventory:
    """Everything the new version must inherit from the old version."""

    def __init__(self) -> None:
        self.fd_entries: List[FdEntry] = []
        self.pids: List[int] = []
        self.pid_by_creation_stack: Dict[int, int] = {}

    @classmethod
    def collect(cls, root: Process, startup_fds_by_pid: Dict[int, List[int]]) -> "ImmutableInventory":
        """Walk the quiesced old tree and inventory its immutable objects."""
        inventory = cls()
        for process in root.tree():
            inventory.pids.append(process.pid)
            inventory.pid_by_creation_stack[process.creation_stack_id] = process.pid
            startup_set = set(startup_fds_by_pid.get(process.pid, ()))
            for fd, obj in process.fdtable.items():
                inventory.fd_entries.append(
                    FdEntry(process.pid, fd, obj, startup=fd in startup_set)
                )
        return inventory


class FdStash:
    """The new version's view of inherited descriptors.

    Maps ``(src_pid, src_fd)`` to the *stash fd* where the object sits in
    the new version's stash range until claimed.  Shared (by reference)
    across the new tree — the claim state is global, matching the paper's
    "progressively propagate all the objects down the process hierarchy"
    (as are the stashed descriptors themselves: fork shares that fd range).
    """

    def __init__(self) -> None:
        self._slots: Dict[Tuple[int, int], int] = {}
        self._claimed: Dict[Tuple[int, int], int] = {}

    def add(self, src_pid: int, src_fd: int, stash_fd: int) -> None:
        self._slots[(src_pid, src_fd)] = stash_fd

    def stash_fd_for(self, src_pid: int, src_fd: int) -> Optional[int]:
        return self._slots.get((src_pid, src_fd))

    def claim(self, src_pid: int, src_fd: int, installed_at: int) -> None:
        self._claimed[(src_pid, src_fd)] = installed_at

    def is_claimed(self, src_pid: int, src_fd: int) -> bool:
        return (src_pid, src_fd) in self._claimed

    def __len__(self) -> int:
        return len(self._slots)
