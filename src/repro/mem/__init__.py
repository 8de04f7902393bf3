"""Memory substrate: simulated address spaces and allocators.

This package stands in for the process-memory machinery MCR uses on Linux:

* ``pages`` / ``address_space`` — 64-bit virtual address spaces backed by
  demand-zero host ``mmap``s (a page costs memory, and is copied by
  ``fork``, only once written), with page-granular **soft-dirty** tracking
  (the ``/proc/<pid>/clear_refs`` + ``pagemap`` mechanism the paper borrows
  from CRIU for dirty-object detection).
* ``ptmalloc`` — a glibc-style heap allocator with in-band chunk metadata,
  startup-time chunk flagging, deferred frees (global separability), and
  ``reserve_range`` (global reallocation of immutable heap objects).
* ``regions`` — the custom allocation schemes of the evaluated servers:
  nginx-style regions and slabs, Apache-style nested pools.
* ``tags`` — the relocation / data-type tag store maintained by MCR's
  allocator instrumentation.
"""

from repro.mem.address_space import AddressSpace, Mapping
from repro.mem.pages import PAGE_SIZE, PageTracker
from repro.mem.ptmalloc import Chunk, PtMallocHeap
from repro.mem.regions import NestedPool, Region, RegionAllocator, SlabAllocator
from repro.mem.tags import DataTag, TagStore

__all__ = [
    "AddressSpace",
    "Mapping",
    "PAGE_SIZE",
    "PageTracker",
    "Chunk",
    "PtMallocHeap",
    "NestedPool",
    "Region",
    "RegionAllocator",
    "SlabAllocator",
    "DataTag",
    "TagStore",
]
