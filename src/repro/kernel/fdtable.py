"""Per-process file-descriptor tables.

Implements the behaviours mutable reinitialization leans on (paper §5):

* POSIX lowest-free-number allocation — the source of the clash/reuse
  problems the paper describes for naive fd inheritance.
* A **reserved range** at the top of the fd space: during replay in the
  new version, fds inherited from the old version are installed at their
  original numbers, and *newly created* fds that must stay separable are
  allocated from the reserved range so their numbers can never collide
  with or be reused as ordinary descriptors (global separability).
* ``block_reuse`` — numbers that may never be re-handed-out after close
  (separability of startup-time descriptors).
* fork-time duplication sharing the underlying open descriptions.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import BadFileDescriptor

RESERVED_BASE = 900   # bottom of the reserved (non-reusable) fd range
FD_MAX = 1024         # top of the reserved range
STASH_BASE = 4096     # inheritance stash: above the reserved range, so
STASH_MAX = 65536     # stash numbers can never collide with recorded
                      # startup fd numbers (RESERVED_BASE..FD_MAX) and the
                      # range is wide enough for 1000-worker trees, whose
                      # global inheritance stashes a few fds per worker


class FDTable:
    """fd number -> kernel object (socket, open file, ...)."""

    def __init__(self) -> None:
        self._entries: Dict[int, Any] = {}
        self._blocked_numbers: set = set()
        self._next_reserved = RESERVED_BASE
        self._next_stash = STASH_BASE

    # -- allocation ---------------------------------------------------------

    def install(self, obj: Any, fd: Optional[int] = None) -> int:
        """Install ``obj``; POSIX lowest-free allocation unless ``fd`` given."""
        if fd is None:
            fd = self._lowest_free()
        elif fd in self._entries:
            raise BadFileDescriptor(fd)
        self._entries[fd] = obj
        return fd

    def install_reserved(self, obj: Any) -> int:
        """Install in the reserved range; the number is never reused."""
        fd = self._next_reserved
        while fd in self._entries or fd in self._blocked_numbers:
            fd += 1
        if fd >= FD_MAX:
            raise BadFileDescriptor(fd)
        self._next_reserved = fd + 1
        self._entries[fd] = obj
        self._blocked_numbers.add(fd)
        return fd

    def install_stash(self, obj: Any) -> int:
        """Install in the inheritance-stash range (never reused either)."""
        fd = self._next_stash
        while fd in self._entries or fd in self._blocked_numbers:
            fd += 1
        if fd >= STASH_MAX:
            raise BadFileDescriptor(fd)
        self._next_stash = fd + 1
        self._entries[fd] = obj
        self._blocked_numbers.add(fd)
        return fd

    def _lowest_free(self) -> int:
        fd = 0
        while fd in self._entries or fd in self._blocked_numbers:
            fd += 1
        if fd >= RESERVED_BASE:
            raise BadFileDescriptor(fd)
        return fd

    # -- lookup / release -----------------------------------------------------

    def get(self, fd: int) -> Any:
        try:
            return self._entries[fd]
        except KeyError:
            raise BadFileDescriptor(fd) from None

    def try_get(self, fd: int) -> Optional[Any]:
        return self._entries.get(fd)

    def close(self, fd: int) -> Any:
        try:
            return self._entries.pop(fd)
        except KeyError:
            raise BadFileDescriptor(fd) from None

    def close_open(self, fds: Iterable[int]) -> List[Any]:
        """Close those of ``fds`` that are open; the objects they held."""
        pop = self._entries.pop
        return [obj for obj in [pop(fd, None) for fd in fds] if obj is not None]

    def dup(self, fd: int) -> int:
        obj = self.get(fd)
        return self.install(obj)

    def block_reuse(self, fd: int) -> None:
        """Forbid this number from ever being allocated again."""
        self._blocked_numbers.add(fd)

    # -- introspection ---------------------------------------------------------

    def __contains__(self, fd: int) -> bool:
        return fd in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[Tuple[int, Any]]:
        return iter(sorted(self._entries.items()))

    def fds(self) -> List[int]:
        return sorted(self._entries)

    def clone(self) -> "FDTable":
        """fork(): same numbers, shared underlying objects."""
        twin = FDTable()
        twin._entries = dict(self._entries)
        twin._blocked_numbers = set(self._blocked_numbers)
        twin._next_reserved = self._next_reserved
        twin._next_stash = self._next_stash
        for obj in twin._entries.values():
            acquire = getattr(obj, "acquire", None)
            if acquire is not None:
                acquire()
        return twin
