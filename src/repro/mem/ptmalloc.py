"""A ptmalloc-style heap allocator over simulated memory.

Models the pieces of the glibc allocator that MCR's design depends on:

* **In-band chunk metadata** — every chunk carries a 32-byte header written
  into simulated memory (size, flags, allocation-site id, type-tag id).
  MCR's allocator instrumentation "maintain[s] relocation and data type
  tags in in-band allocator metadata" (paper §6); the authoritative tag map
  is the per-process ``TagStore``, with the header mirroring the tag id.
* **Startup flagging & deferred frees** — *global separability* for
  immutable dynamic memory objects: chunks allocated during startup are
  flagged in metadata, and frees issued during startup are deferred until
  ``end_startup()`` so no startup-time address is ever reused (paper §5).
* **``reserve_range``** — *global reallocation*: during mutable
  reinitialization the new version must reallocate immutable heap objects
  at exactly their old-version addresses, which requires "dedicated
  allocator support to enforce a given memory layout in a fresh heap
  state" (paper §5).  ``reserve_range`` carves each coalesced span of
  them (a superobject) out of free space before the new version's
  startup allocates.

Allocation policy is deterministic first-fit over a sorted free-interval
list with coalescing on free — deliberately simpler than glibc's bins, but
with identical observable properties for MCR (address stability, reuse
behaviour, in-band metadata placement).
"""

from __future__ import annotations

import bisect
import struct
from collections import namedtuple
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.errors import AllocatorError, MemoryFault
from repro.mem.address_space import AddressSpace, HEAP_BASE, Mapping

HEADER_SIZE = 32
_HEADER = struct.Struct("<4Q")
MIN_ALIGN = 16

FLAG_IN_USE = 0x1
FLAG_STARTUP = 0x2
FLAG_INSTRUMENTED = 0x4


def _align_up(value: int, alignment: int = MIN_ALIGN) -> int:
    return (value + alignment - 1) // alignment * alignment


class Chunk(namedtuple("_Chunk", "base user_base user_size total_size startup site_id")):
    """A live heap chunk (header + user area).

    Written once, like ``DataTag``: ``fork`` shares the chunk objects and
    copies the table, and a flag is changed by installing a new chunk.
    """

    __slots__ = ()

    def __new__(
        cls, base: int, user_size: int, total_size: int, startup: bool = False, site_id: int = 0
    ) -> "Chunk":
        return tuple.__new__(
            cls, (base, base + HEADER_SIZE, user_size, total_size, startup, site_id)
        )

    @property
    def user_end(self) -> int:
        return self.user_base + self.user_size

    def contains(self, address: int) -> bool:
        return self[1] <= address < self[1] + self[2]  # user_base, user_size: by index, it is hot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Chunk user=0x{self.user_base:x} size={self.user_size}>"


class _FreeList:
    """Sorted, coalescing list of free [start, end) intervals."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []

    def add(self, start: int, end: int) -> None:
        index = bisect.bisect_left(self._starts, start)
        # Coalesce with predecessor.
        if index > 0 and self._ends[index - 1] == start:
            start = self._starts[index - 1]
            del self._starts[index - 1]
            del self._ends[index - 1]
            index -= 1
        # Coalesce with successor.
        if index < len(self._starts) and self._starts[index] == end:
            end = self._ends[index]
            del self._starts[index]
            del self._ends[index]
        self._starts.insert(index, start)
        self._ends.insert(index, end)

    def take_first_fit(self, size: int) -> Optional[int]:
        """Remove and return the start of the first interval >= size."""
        for i, (start, end) in enumerate(zip(self._starts, self._ends)):
            if end - start >= size:
                new_start = start + size
                if new_start == end:
                    del self._starts[i]
                    del self._ends[i]
                else:
                    self._starts[i] = new_start
                return start
        return None

    def take_at(self, start: int, size: int) -> bool:
        """Carve exactly [start, start+size) out of a free interval."""
        end = start + size
        index = bisect.bisect_right(self._starts, start) - 1
        if index < 0:
            return False
        istart, iend = self._starts[index], self._ends[index]
        if start < istart or end > iend:
            return False
        del self._starts[index]
        del self._ends[index]
        if istart < start:
            self.add(istart, start)
        if end < iend:
            self.add(end, iend)
        return True

    def intervals(self) -> Iterator[Tuple[int, int]]:
        return iter(zip(list(self._starts), list(self._ends)))

    def total_free(self) -> int:
        return sum(e - s for s, e in zip(self._starts, self._ends))


class PtMallocHeap:
    """The process heap: deterministic first-fit with in-band metadata."""

    def __init__(
        self,
        space: AddressSpace,
        base: int = HEAP_BASE,
        size: int = 4 * 1024 * 1024,
        name: str = "heap",
    ) -> None:
        self._space = space
        self._mapping: Mapping = space.map(size, address=base, name=name, kind="heap")
        self._free = _FreeList()
        self._free.add(self._mapping.base, self._mapping.end)
        self._chunks: Dict[int, Chunk] = {}  # keyed by user_base
        self._sorted_user_bases: List[int] = []
        self._reserved: Dict[int, int] = {}  # superobject spans: base -> size
        self.startup_mode = True
        self._deferred_frees: List[int] = []
        # Membership view of _deferred_frees: a deferred chunk is already
        # logically dead, so a second free or a realloc of it is the same
        # use-after-free it would be outside startup mode.
        self._deferred: set = set()
        # Counters feeding the cost model and the memory-usage benchmark.
        self.malloc_count = 0
        self.free_count = 0
        self.bytes_allocated = 0

    # -- core API ---------------------------------------------------------

    @property
    def space(self) -> AddressSpace:
        return self._space

    @property
    def base(self) -> int:
        return self._mapping.base

    @property
    def end(self) -> int:
        return self._mapping.end

    def malloc(self, size: int, site_id: int = 0) -> int:
        """Allocate ``size`` user bytes; returns the user address."""
        if size <= 0:
            raise AllocatorError(f"malloc of non-positive size {size}")
        total = _align_up(HEADER_SIZE + size)
        base = self._free.take_first_fit(total)
        if base is None:
            raise AllocatorError(
                f"out of simulated heap ({self._free.total_free()} free, asked {total})"
            )
        return self._install_chunk(base, size, total, site_id)

    def reserve_range(self, address: int, size: int) -> None:
        """Carve a raw address range out of free space (no chunk header).

        Global reallocation uses this to pre-place *superobjects*: coalesced
        spans of immutable old-version heap objects that must reappear at
        identical addresses in the new version (paper §5).  The span stays
        out of normal allocation for the heap's life.
        """
        if not self._free.take_at(address, size):
            raise AllocatorError(
                f"cannot reserve [0x{address:x}, 0x{address + size:x}): not free"
            )
        self._reserved[address] = size
        collector = obs.ACTIVE
        if collector is not None:
            collector.counters.incr("alloc.reserved_spans")
            collector.counters.incr("alloc.reserved_bytes", size)

    def reserved_ranges(self) -> Dict[int, int]:
        return dict(self._reserved)

    def reserved_containing(self, address: int) -> Optional[Tuple[int, int]]:
        for base, size in self._reserved.items():
            if base <= address < base + size:
                return base, size
        return None

    def free(self, user_address: int) -> None:
        chunk = self._chunks.get(user_address)
        if chunk is None:
            raise AllocatorError(f"free of non-allocated address 0x{user_address:x}")
        if self.startup_mode:
            # Global separability: no startup-time address reuse.  The
            # chunk stays resident until end_startup() releases it.
            if user_address in self._deferred:
                raise AllocatorError(
                    f"double free of startup address 0x{user_address:x}"
                )
            self._deferred.add(user_address)
            self._deferred_frees.append(user_address)
            collector = obs.ACTIVE
            if collector is not None:
                collector.counters.incr("alloc.deferred_frees")
            return
        self._release(chunk)

    # -- startup-phase control ---------------------------------------------

    def end_startup(self) -> None:
        """Leave startup mode: process deferred frees, stop flagging chunks."""
        self.startup_mode = False
        deferred, self._deferred_frees = self._deferred_frees, []
        self._deferred = set()
        for user_address in deferred:
            chunk = self._chunks.get(user_address)
            if chunk is not None:
                self._release(chunk)

    # -- introspection (used by tracing) ------------------------------------

    def find_chunk(self, address: int) -> Optional[Chunk]:
        """The live chunk whose *user area* contains ``address``, if any."""
        index = bisect.bisect_right(self._sorted_user_bases, address) - 1
        if index < 0:
            return None
        chunk = self._chunks.get(self._sorted_user_bases[index])
        if chunk is not None and chunk.contains(address):
            return chunk
        return None

    def chunks(self) -> Iterator[Chunk]:
        for user_base in list(self._sorted_user_bases):
            chunk = self._chunks.get(user_base)
            if chunk is not None:
                yield chunk

    def chunk_table(self) -> Tuple[Chunk, ...]:
        """Every live chunk, in table order, as one comparable value."""
        return tuple(self._chunks.values())

    def live_chunk_count(self) -> int:
        return len(self._chunks)

    def live_bytes(self) -> int:
        return sum(c.user_size for c in self._chunks.values())

    # -- internals ----------------------------------------------------------

    def _install_chunk(self, base: int, size: int, total: int, site_id: int) -> int:
        # ``Chunk(...)`` without its Python-level ``__new__`` frame: one per malloc.
        user_base = base + HEADER_SIZE
        chunk = tuple.__new__(Chunk, (base, user_base, size, total, self.startup_mode, site_id))
        self._chunks[user_base] = chunk
        bisect.insort(self._sorted_user_bases, user_base)
        self._write_header(chunk)
        self.malloc_count += 1
        self.bytes_allocated += size
        collector = obs.ACTIVE
        if collector is not None:
            collector.counters.incr("alloc.mallocs")
            collector.counters.incr("alloc.bytes", size)
            if chunk.startup:
                collector.counters.incr("alloc.startup_chunks")
        return user_base

    def _release(self, chunk: Chunk) -> None:
        del self._chunks[chunk.user_base]
        index = bisect.bisect_left(self._sorted_user_bases, chunk.user_base)
        del self._sorted_user_bases[index]
        # Scrub the user area so stale pointer words cannot mislead the
        # conservative scanner (glibc similarly clobbers freed chunks with
        # list links; scrubbing is the conservative-GC-friendly variant).
        self._space.write_bytes(chunk.base, b"\x00" * chunk.total_size)
        self._free.add(chunk.base, chunk.base + chunk.total_size)
        self.free_count += 1
        collector = obs.ACTIVE
        if collector is not None:
            collector.counters.incr("alloc.frees")

    def _write_header(self, chunk: Chunk) -> None:
        flags = FLAG_IN_USE | (FLAG_STARTUP if chunk.startup else 0)
        # size, flags, site id, tag id mirror (set by TagStore)
        header = _HEADER.pack(chunk.total_size, flags, chunk.site_id, 0)
        self._space.write_bytes(chunk.base, header)

    def set_header_tag(self, chunk: Chunk, tag_id: int) -> None:
        """Mirror the TagStore tag id into in-band metadata."""
        self._space.write_bytes(chunk.base + 24, tag_id.to_bytes(8, "little"))

    def release(self) -> None:
        """exit(): drop this heap's own tables.  The chunks in them may be
        a forked sibling's too, so the tables are replaced, the chunks
        left alone."""
        self._free = _FreeList()
        self._chunks = {}
        self._sorted_user_bases = []
        self._reserved = {}
        self._deferred_frees = []
        self._deferred = set()

    def clone_into(self, space: AddressSpace) -> "PtMallocHeap":
        """Rebind this heap's bookkeeping onto a forked address space.

        The mapping bytes were already cloned by ``AddressSpace.clone``;
        this copies the allocator's logical state (chunks, free list,
        counters) so the child process can keep allocating independently.
        """
        twin = PtMallocHeap.__new__(PtMallocHeap)
        twin._space = space
        twin._mapping = space.mapping_at(self._mapping.base)
        if twin._mapping is None:
            raise MemoryFault(self._mapping.base, "heap mapping missing in clone")
        twin._free = _FreeList()
        twin._free._starts = list(self._free._starts)
        twin._free._ends = list(self._free._ends)
        twin._chunks = dict(self._chunks)  # the (write-once) chunks are shared
        twin._sorted_user_bases = list(self._sorted_user_bases)
        twin._reserved = dict(self._reserved)
        twin.startup_mode = self.startup_mode
        twin._deferred_frees = list(self._deferred_frees)
        twin._deferred = set(self._deferred)
        twin.malloc_count = self.malloc_count
        twin.free_count = self.free_count
        twin.bytes_allocated = self.bytes_allocated
        return twin
