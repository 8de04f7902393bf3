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
* The **inheritance stash** (``STASH_BASE..STASH_MAX``): the new version's
  first process receives every old descriptor there and fork hands them
  all down the new tree, until replay's end collects what nobody claimed.
  Every process holds the same stash, so it is held once: a
  ``_StashLayer`` that ``clone`` shares by reference.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import BadFileDescriptor

RESERVED_BASE = 900   # bottom of the reserved (non-reusable) fd range
FD_MAX = 1024         # top of the reserved range
STASH_BASE = 4096     # inheritance stash: above the reserved range, so
STASH_MAX = 65536     # stash numbers can never collide with recorded
                      # startup fd numbers (RESERVED_BASE..FD_MAX) and the
                      # range is wide enough for 1000-worker trees, whose
                      # global inheritance stashes a few fds per worker


_NO_STASH: Mapping[int, Any] = MappingProxyType({})


class _StashLayer:
    """The stash range of every table that shares it, holding *one*
    reference on each object on behalf of them all (``obj.refcount`` = own
    slots holding it + layers holding it).  A shared layer is never
    mutated: ``FDTable._private_stash`` copies it first."""

    __slots__ = ("entries", "sharers")

    def __init__(self, entries: Dict[int, Any]) -> None:
        self.entries = entries
        self.sharers = 1


class FDTable:
    """fd number -> kernel object (socket, open file, ...)."""

    def __init__(self) -> None:
        self._entries: Dict[int, Any] = {}    # numbers below STASH_BASE
        self._stash: Optional[_StashLayer] = None  # STASH_BASE and above
        # Stash numbers are not kept here: their cursor is monotonic and no
        # other allocator reaches STASH_BASE; ``alloc_state`` derives them.
        self._blocked_numbers: set = set()
        self._next_reserved = RESERVED_BASE
        self._next_stash = STASH_BASE

    # -- allocation ---------------------------------------------------------

    def install(self, obj: Any, fd: Optional[int] = None) -> int:
        """Install ``obj``; POSIX lowest-free allocation unless ``fd`` given."""
        if fd is None:
            fd = self._lowest_free()
        elif fd in self:
            raise BadFileDescriptor(fd)
        (self._private_stash() if fd >= STASH_BASE else self._entries)[fd] = obj
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
        stashed = self._stashed()
        fd = self._next_stash
        while fd in stashed or fd in self._blocked_numbers:
            fd += 1
        if fd >= STASH_MAX:
            raise BadFileDescriptor(fd)
        self._next_stash = fd + 1
        self._private_stash()[fd] = obj
        return fd

    def _lowest_free(self) -> int:
        fd = 0
        while fd in self._entries or fd in self._blocked_numbers:
            fd += 1
        if fd >= RESERVED_BASE:
            raise BadFileDescriptor(fd)
        return fd

    # -- the stash layer ------------------------------------------------------

    def _stashed(self) -> Mapping[int, Any]:
        """The stash range, read-only (it may be shared)."""
        layer = self._stash
        return _NO_STASH if layer is None else layer.entries

    def _private_stash(self) -> Dict[int, Any]:
        """The stash range, safe to mutate: a layer other tables share is
        copied first, the copy taking its own reference on every object."""
        layer = self._stash
        if layer is None:
            layer = self._stash = _StashLayer({})
        elif layer.sharers > 1:
            layer.sharers -= 1
            layer = self._stash = _StashLayer(dict(layer.entries))
            _acquire_all(layer.entries)
        return layer.entries

    def close_stash(self) -> List[Any]:
        """Give up the whole stash range: the objects whose reference the
        caller must now drop — none while another table still shares the
        layer (it keeps the layer's one reference), else all of them."""
        layer, self._stash = self._stash, None
        if layer is None:
            return []
        layer.sharers -= 1
        if layer.sharers:
            return []
        return [obj for _fd, obj in sorted(layer.entries.items())]

    # -- lookup / release -----------------------------------------------------

    def get(self, fd: int) -> Any:
        try:
            return self._entries[fd]
        except KeyError:
            pass
        try:
            return self._stashed()[fd]
        except KeyError:
            raise BadFileDescriptor(fd) from None

    def try_get(self, fd: int) -> Optional[Any]:
        obj = self._entries.get(fd)
        return obj if obj is not None else self._stashed().get(fd)

    def close(self, fd: int) -> Any:
        if fd in self._entries:
            return self._entries.pop(fd)
        if fd in self._stashed():
            return self._private_stash().pop(fd)
        raise BadFileDescriptor(fd)

    def close_all(self) -> List[Any]:
        """Process exit: close every fd, in fd order; the objects whose
        reference the caller must now drop (see ``close_stash``)."""
        own = [obj for _fd, obj in sorted(self._entries.items())]
        self._entries = {}
        return own + self.close_stash()

    def block_reuse(self, fd: int) -> None:
        """Forbid this number from ever being allocated again."""
        self._blocked_numbers.add(fd)

    # -- introspection ---------------------------------------------------------

    def __contains__(self, fd: int) -> bool:
        return fd in self._entries or fd in self._stashed()

    def __len__(self) -> int:
        return len(self._entries) + len(self._stashed())

    def items(self) -> Iterator[Tuple[int, Any]]:
        # Own numbers all sit below STASH_BASE, stashed ones at or above.
        return iter(sorted(self._entries.items()) + sorted(self._stashed().items()))

    def fds(self) -> List[int]:
        return sorted(self._entries) + sorted(self._stashed())

    def alloc_state(self) -> Dict[str, Any]:
        """The allocator cursors and never-reuse numbers (an image's ``fd_alloc``)."""
        return {
            "next_reserved": self._next_reserved,
            "next_stash": self._next_stash,
            "blocked": sorted(self._blocked_numbers.union(range(STASH_BASE, self._next_stash))),
        }

    def load_alloc_state(self, alloc: Dict[str, Any]) -> None:
        """Overlay what ``alloc_state`` captured (checkpoint restore)."""
        self._next_reserved = alloc["next_reserved"]
        self._next_stash = stop = alloc["next_stash"]
        self._blocked_numbers = {n for n in alloc["blocked"] if not STASH_BASE <= n < stop}

    def clone(self) -> "FDTable":
        """fork(): same numbers, shared underlying objects — work in
        proportion to the own entries; the stash is shared by reference."""
        twin = FDTable()
        twin._entries = dict(self._entries)
        twin._blocked_numbers = set(self._blocked_numbers)
        twin._next_reserved = self._next_reserved
        twin._next_stash = self._next_stash
        _acquire_all(twin._entries)
        layer = self._stash
        if layer is not None:
            layer.sharers += 1
            twin._stash = layer
        return twin


def _acquire_all(entries: Dict[int, Any]) -> None:
    for obj in entries.values():
        acquire = getattr(obj, "acquire", None)
        if acquire is not None:
            acquire()
