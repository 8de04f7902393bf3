"""Custom allocation schemes used by the evaluated servers.

The paper's evaluation hinges on custom allocators (§8): *"nginx uses slabs
and regions, Apache httpd uses nested regions"*.  Objects handed out by an
uninstrumented custom allocator are invisible to MCR's per-chunk type tags —
the whole backing block is one opaque object, so every pointer into it (and
every pointer-looking word inside it) becomes a *likely pointer* and the
targets become immutable.  Instrumenting the region allocator (the
``nginx_reg`` configuration of Tables 2/3) registers a tag per region
allocation, trading allocator overhead for tracing precision.

Three schemes, per Berger et al. "Reconsidering custom memory allocation":

* ``RegionAllocator`` — bump allocation in large blocks, freed all at once.
* ``SlabAllocator``   — size-class slabs.
* ``NestedPool``      — hierarchical regions (Apache APR pools): destroying
  a pool destroys its children.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro import obs
from repro.errors import AllocatorError
from repro.mem.ptmalloc import PtMallocHeap

# Allocation-site ids for backing blocks, so tracing can recognise that a
# heap chunk is a custom-allocator block rather than a direct malloc object.
SITE_REGION_BLOCK = 0x7E6001
SITE_SLAB_BLOCK = 0x7E6002


def _align_up(value: int, alignment: int = 16) -> int:
    return (value + alignment - 1) // alignment * alignment


# In-band block header: [next-block ptr][first-child ptr][next-sibling ptr]
# — the APR-style chaining that makes pool memory *reachable* from program
# roots, which is how conservative tracing discovers it (Table 2).
BLOCK_HEADER_SIZE = 24


class Region:
    """One bump-allocated region: a backing block plus a cursor.

    The first ``BLOCK_HEADER_SIZE`` bytes hold the in-memory chain links.
    """

    __slots__ = ("base", "size", "cursor")

    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.size = size
        self.cursor = base + (BLOCK_HEADER_SIZE if size >= BLOCK_HEADER_SIZE else 0)

    @property
    def end(self) -> int:
        return self.base + self.size

    def bump(self, size: int) -> Optional[int]:
        aligned = _align_up(self.cursor)
        if aligned + size > self.end:
            return None
        self.cursor = aligned + size
        return aligned


class RegionAllocator:
    """nginx-style region (pool) allocator: blocks from the heap, bump inside."""

    def __init__(self, heap: PtMallocHeap, block_size: int = 16 * 1024) -> None:
        self._heap = heap
        self._block_size = block_size
        self._regions: List[Region] = []
        # First fit, resumed: a block's free space only shrinks until
        # ``destroy``, so a block that refused ``size`` once refuses it
        # forever.  Per size, the first index not yet known to refuse.
        self._first_fit: Dict[int, int] = {}
        self.alloc_count = 0
        self.bytes_allocated = 0

    def _append_block(self, size: int) -> Region:
        base = self._heap.malloc(size, site_id=SITE_REGION_BLOCK)
        region = Region(base, size)
        if self._regions:
            # Chain in memory: previous block's header points to this one.
            self._heap.space.write_word(self._regions[-1].base, base)
        self._regions.append(region)
        obs.incr("alloc.region.blocks")
        return region

    def ensure_block(self) -> Region:
        """Make sure at least one (possibly empty) backing block exists."""
        if not self._regions:
            return self._append_block(self._block_size)
        return self._regions[0]

    @property
    def first_block_base(self) -> int:
        """Address of the first block (what a root pointer should hold)."""
        return self.ensure_block().base

    def alloc(self, size: int) -> int:
        """Bump-allocate ``size`` bytes; grows by whole blocks as needed."""
        if size <= 0:
            raise AllocatorError(f"region alloc of non-positive size {size}")
        obs.incr("alloc.region.allocs")
        if size > self._block_size - BLOCK_HEADER_SIZE - 16:
            # Oversized allocations get a dedicated block (nginx "large");
            # the block carries the chain header plus alignment slack.
            address = self._append_block(size + BLOCK_HEADER_SIZE + 16).bump(size)
        else:
            regions = self._regions
            for index in range(self._first_fit.get(size, 0), len(regions)):
                region = regions[index]
                address = (region.cursor + 15) & -16  # Region.bump, inlined
                if address + size <= region.base + region.size:
                    region.cursor = address + size
                    break
            else:
                index = len(regions)
                address = self._append_block(self._block_size).bump(size)
                if address is None:  # pragma: no cover - block_size >= size by now
                    raise AllocatorError("fresh region cannot satisfy request")
            self._first_fit[size] = index
        self.alloc_count += 1
        self.bytes_allocated += size
        return address

    def destroy(self) -> None:
        """Release every backing block at once (region semantics)."""
        for region in self._regions:
            self._heap.free(region.base)
        self._regions.clear()
        self._first_fit.clear()

    def blocks(self) -> Iterator[Region]:
        return iter(self._regions)

    def block_count(self) -> int:
        return len(self._regions)


class SlabAllocator:
    """nginx-style slab allocator: power-of-two size classes."""

    SIZE_CLASSES = (16, 32, 64, 128, 256, 512, 1024, 2048)

    def __init__(self, heap: PtMallocHeap, slab_size: int = 32 * 1024) -> None:
        self._heap = heap
        self._slab_size = slab_size
        self._slabs: Dict[int, List[Region]] = {c: [] for c in self.SIZE_CLASSES}
        self.alloc_count = 0

    def _size_class(self, size: int) -> int:
        for cls in self.SIZE_CLASSES:
            if size <= cls:
                return cls
        raise AllocatorError(f"slab request too large: {size}")

    def alloc(self, size: int) -> int:
        cls = self._size_class(size)
        obs.incr("alloc.slab.allocs")
        for slab in self._slabs[cls]:
            address = slab.bump(cls)
            if address is not None:
                self.alloc_count += 1
                return address
        base = self._heap.malloc(self._slab_size, site_id=SITE_SLAB_BLOCK)
        slab = Region(base, self._slab_size)
        self._slabs[cls].append(slab)
        address = slab.bump(cls)
        if address is None:  # pragma: no cover - fresh slab always fits
            raise AllocatorError("fresh slab cannot satisfy request")
        self.alloc_count += 1
        return address


class NestedPool:
    """Apache-style nested pool: child pools die with their parent."""

    def __init__(
        self,
        heap: PtMallocHeap,
        parent: Optional["NestedPool"] = None,
        block_size: int = 8 * 1024,
        name: str = "pool",
    ) -> None:
        self._heap = heap
        self._region = RegionAllocator(heap, block_size)
        self.parent = parent
        self.name = name
        self.children: List["NestedPool"] = []
        self._destroyed = False
        # Pools are reachable data: the first block exists from birth and
        # the parent/sibling chain lives in the block headers (APR-style).
        self._region.ensure_block()
        if parent is not None:
            parent.children.append(self)
            parent._rewrite_child_chain()

    @property
    def first_block_base(self) -> int:
        return self._region.first_block_base

    def _rewrite_child_chain(self) -> None:
        """Mirror the Python child list into in-memory header links."""
        space = self._heap.space
        head = self._region.first_block_base
        previous: Optional[int] = None
        for child in self.children:
            child_base = child.first_block_base
            if previous is None:
                space.write_word(head + 8, child_base)  # first-child slot
            else:
                space.write_word(previous + 16, child_base)  # sibling slot
            previous = child_base
        if previous is None:
            space.write_word(head + 8, 0)
        else:
            space.write_word(previous + 16, 0)

    def create_child(self, name: str = "child") -> "NestedPool":
        if self._destroyed:
            raise AllocatorError(f"allocation from destroyed pool {self.name}")
        return NestedPool(self._heap, parent=self, block_size=self._region._block_size, name=name)

    def alloc(self, size: int) -> int:
        if self._destroyed:
            raise AllocatorError(f"allocation from destroyed pool {self.name}")
        return self._region.alloc(size)

    def destroy(self) -> None:
        """Destroy this pool and, recursively, all of its children."""
        if self._destroyed:
            return
        for child in list(self.children):
            child.destroy()
        self._region.destroy()
        self._destroyed = True
        if self.parent is not None and self in self.parent.children:
            self.parent.children.remove(self)
            if not self.parent._destroyed:
                self.parent._rewrite_child_chain()

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    def blocks(self) -> Iterator[Region]:
        return self._region.blocks()
