"""The "libc" for simulated program data.

``CRuntime`` gives server code typed access to simulated memory: heap
allocation (with MCR's allocator instrumentation applied according to the
process build configuration), struct field reads/writes, C strings, and
stack-resident variables.  All state created through it is real bytes in
the process's address space — pointers are 8-byte words that mutable
tracing later reads back.

Allocator instrumentation semantics (paper §6):

* ``static_instr``    — malloc call sites are wrapped; each allocation
  registers a relocation/data-type tag keyed by the *allocation-site call
  stack*, and pays ``tag_cost_ns`` of virtual time (this is the dominant
  MCR overhead in Table 3).
* ``dynamic_instr``   — shared-library allocations are tracked too.
* ``instrument_regions`` — the ``nginx_reg`` configuration: region
  allocations also register tags (more precision, more overhead).

Without instrumentation an allocation has no tag and is opaque to precise
tracing — the conservative scanner takes over.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AllocatorError
from repro.kernel.process import Process, Thread, call_stack_id
from repro.mem.address_space import Mapping
from repro.mem.regions import NestedPool, RegionAllocator, SlabAllocator
from repro.mem.tags import ORIGIN_HEAP, ORIGIN_LIB, ORIGIN_REGION, ORIGIN_STACK
from repro.types import codec
from repro.types.descriptors import ArrayType, CHAR, StructType, TypeDesc

STACK_BASE = 0x0000_5000_0000
STACK_SIZE = 64 * 1024
STACK_SPACING = 0x100000

# Virtual-time costs of allocator paths (ns).  Ratios, not absolutes,
# matter: instrumented allocation is a few times a plain one, which is what
# produces the Table-3 overhead on allocation-heavy programs.
ALLOC_BASE_COST_NS = 90
ALLOC_TAG_COST_NS = 320
ALLOC_DINSTR_COST_NS = 45   # +DInstr: shared-library allocation tracking hook
REGION_ALLOC_COST_NS = 35
REGION_TAG_COST_NS = 300
FREE_COST_NS = 60


class StackArea:
    """A thread's stack: bump allocator plus the overlay metadata list.

    Models the paper's "linked list of overlay stack metadata nodes" for
    tracking stack variables, which MCR limits to functions active at
    quiescent points.
    """

    def __init__(self, mapping: Mapping) -> None:
        self.mapping = mapping
        self.cursor = mapping.base
        # (name, address, type) overlay nodes, innermost last.
        self.overlay: List[Tuple[str, int, TypeDesc]] = []

    def mark(self) -> Tuple[int, int]:
        return self.cursor, len(self.overlay)

    def release(self, mark: Tuple[int, int]) -> None:
        self.cursor, overlay_len = mark
        del self.overlay[overlay_len:]

    def alloc(self, name: str, type_: TypeDesc) -> int:
        aligned = (self.cursor + type_.align - 1) // type_.align * type_.align
        if aligned + type_.size > self.mapping.end:
            raise AllocatorError(f"stack overflow allocating {name}")
        self.cursor = aligned + type_.size
        self.overlay.append((name, aligned, type_))
        return aligned


class SharedLib:
    """A simulated shared library image with its own untagged state.

    Libraries are mapped in the lib address range; allocations inside them
    carry *no* type tags by default (uninstrumented), so program pointers
    into library state become likely pointers — the paper's Table 2 "Lib"
    columns.  MCR's prelink step remaps a library at the same base address
    in the new version (see ``repro.mcr.reinit.realloc``).
    """

    def __init__(self, process: Process, name: str, size: int = 64 * 1024, base: Optional[int] = None) -> None:
        self.name = name
        self.process = process
        fixed = base is not None
        self.mapping = process.space.map(size, address=base, name=f"lib:{name}", kind="lib", fixed=fixed)
        self.cursor = self.mapping.base
        self.alloc_count = 0

    @property
    def base(self) -> int:
        return self.mapping.base

    def alloc(self, size: int, align: int = 16) -> int:
        aligned = (self.cursor + align - 1) // align * align
        if aligned + size > self.mapping.end:
            raise AllocatorError(f"lib {self.name} out of space")
        self.cursor = aligned + size
        self.alloc_count += 1
        runtime = self.process.runtime
        if runtime is not None and runtime.build.dynamic_instr:
            # +DInstr tracks library allocations (paper Table 3 note), but
            # as *untyped* objects: the library's internal layout is still
            # unknown, so the object stays conservative.
            from repro.types.descriptors import OpaqueType

            self.process.tags.register(
                aligned, OpaqueType(size), ORIGIN_LIB, site=f"lib:{self.name}"
            )
        return aligned


class CRuntime:
    """Typed memory operations for one process."""

    def __init__(self, process: Process) -> None:
        self.process = process
        self._stacks: Dict[int, StackArea] = {}
        # Skip past any stack mappings inherited across fork.
        self._next_stack_base = STACK_BASE
        for mapping in process.space.mappings(kind="stack"):
            candidate = mapping.base + STACK_SPACING
            if candidate > self._next_stack_base:
                self._next_stack_base = candidate

    # -- configuration shortcuts ------------------------------------------------

    @property
    def _build(self):
        runtime = self.process.runtime
        return runtime.build if runtime is not None else None

    def _charge(self, cost_ns: int) -> None:
        self.process.kernel.clock.advance(cost_ns)

    # -- heap -------------------------------------------------------------------

    def malloc(self, size: int, thread: Optional[Thread] = None) -> int:
        """Untyped allocation (no tag even when instrumented: unknown type)."""
        self._charge(ALLOC_BASE_COST_NS)
        site = self._site_id(thread)
        return self.process.heap.malloc(size, site_id=site)

    def malloc_typed(self, thread: Thread, type_: TypeDesc) -> int:
        """Allocation through an instrumented call site.

        With static instrumentation enabled, the wrapper performs the
        paper's per-callsite allocation type analysis (here: the declared
        type) and registers a data-type tag.  With dynamic instrumentation
        on top, the allocation is additionally run through the
        library-allocation tracking hook.
        """
        self._charge(ALLOC_BASE_COST_NS)
        site = self._site_id(thread)
        address = self.process.heap.malloc(type_.size, site_id=site)
        build = self._build
        if build is not None and build.static_instr:
            self._charge(ALLOC_TAG_COST_NS)
            tag = self.process.tags.register(
                address, type_, ORIGIN_HEAP, site=self._site_name(thread)
            )
            chunk = self.process.heap.find_chunk(address)
            if chunk is not None:
                self.process.heap.set_header_tag(chunk, tag.tag_id)
        if build is not None and build.dynamic_instr:
            self._charge(ALLOC_DINSTR_COST_NS)
        return address

    def free(self, address: int) -> None:
        self._charge(FREE_COST_NS)
        self.process.tags.unregister(address)
        self.process.heap.free(address)

    # -- custom allocators ---------------------------------------------------------

    def region_create(self, block_size: int = 16 * 1024) -> RegionAllocator:
        return RegionAllocator(self.process.heap, block_size)

    def slab_create(self, slab_size: int = 32 * 1024) -> SlabAllocator:
        return SlabAllocator(self.process.heap, slab_size)

    def pool_create(self, name: str = "root", block_size: int = 8 * 1024) -> NestedPool:
        return NestedPool(self.process.heap, name=name, block_size=block_size)

    def region_alloc_typed(self, thread: Thread, region: RegionAllocator, type_: TypeDesc) -> int:
        """Region allocation; tagged only under region instrumentation."""
        self._charge(REGION_ALLOC_COST_NS)
        address = region.alloc(type_.size)
        build = self._build
        if build is not None and build.instrument_regions:
            self._charge(REGION_TAG_COST_NS)
            self.process.tags.register(
                address, type_, ORIGIN_REGION, site=self._site_name(thread)
            )
            if build.dynamic_instr:
                self._charge(ALLOC_DINSTR_COST_NS)
        return address

    def region_destroy(self, region: RegionAllocator) -> None:
        """Destroy a region, dropping any instrumentation tags inside it."""
        for block in region.blocks():
            self.process.tags.unregister_range(block.base, block.end)
        region.destroy()

    def region_alloc_raw(self, region: RegionAllocator, size: int) -> int:
        """Untyped region allocation.

        Under region instrumentation the wrapper still registers an
        (opaque) tag — the instrumented allocator wraps *every* call site,
        typed or not, which is exactly the Table-3 nginx_reg cost.
        """
        self._charge(REGION_ALLOC_COST_NS)
        address = region.alloc(size)
        build = self._build
        if build is not None and build.instrument_regions:
            self._charge(REGION_TAG_COST_NS)
            from repro.types.descriptors import OpaqueType

            self.process.tags.register(
                address, OpaqueType(size), ORIGIN_REGION, site="region_raw"
            )
            if build.dynamic_instr:
                self._charge(ALLOC_DINSTR_COST_NS)
        return address

    # -- field access ------------------------------------------------------------------

    def get(self, address: int, type_: StructType, field: str) -> Any:
        f = type_.field(field)
        return codec.read_value(self.process.space, address + f.offset, f.type)

    def set(self, address: int, type_: StructType, field: str, value: Any) -> None:
        f = type_.field(field)
        codec.write_value(self.process.space, address + f.offset, f.type, value)

    def field_addr(self, address: int, type_: StructType, field: str) -> int:
        return address + type_.field(field).offset

    # -- globals ------------------------------------------------------------------------

    def global_addr(self, name: str) -> int:
        symbol = self.process.symbols.lookup(name)
        return symbol.address

    def func_addr(self, name: str) -> int:
        """Address of a named function in this version's text segment."""
        symbol = self.process.symbols.lookup(name)
        if symbol.section != "text":
            raise KeyError(f"{name} is not a function symbol")
        return symbol.address

    def gget(self, name: str, field: Optional[str] = None) -> Any:
        symbol = self.process.symbols.lookup(name)
        if field is None:
            return codec.read_value(self.process.space, symbol.address, symbol.type)
        return self.get(symbol.address, symbol.type, field)

    def gset(self, name: str, value: Any, field: Optional[str] = None) -> None:
        symbol = self.process.symbols.lookup(name)
        if field is None:
            codec.write_value(self.process.space, symbol.address, symbol.type, value)
        else:
            self.set(symbol.address, symbol.type, field, value)

    # -- strings -----------------------------------------------------------------------

    def write_cstr(self, address: int, text: str, capacity: Optional[int] = None) -> None:
        data = text.encode() + b"\x00"
        if capacity is not None and len(data) > capacity:
            raise AllocatorError(f"string does not fit: {len(data)} > {capacity}")
        self.process.space.write_bytes(address, data)

    def read_cstr(self, address: int, limit: int = 4096) -> str:
        return self.process.space.read_cstr(address, limit).decode(errors="replace")

    def strdup(self, thread: Thread, text: str) -> int:
        """Heap-allocate a C string.  Char data: opaque even when tagged."""
        data = text.encode() + b"\x00"
        self._charge(ALLOC_BASE_COST_NS)
        address = self.process.heap.malloc(len(data), site_id=self._site_id(thread))
        build = self._build
        if build is not None and build.static_instr:
            self._charge(ALLOC_TAG_COST_NS)
            self.process.tags.register(
                address,
                ArrayType(CHAR, len(data)),
                ORIGIN_HEAP,
                site=self._site_name(thread),
            )
        self.process.space.write_bytes(address, data)
        return address

    # -- stack variables ------------------------------------------------------------------

    def stack_area(self, thread: Thread) -> StackArea:
        area = self._stacks.get(thread.tid)
        if area is None:
            base = self._next_stack_base
            self._next_stack_base += STACK_SPACING
            mapping = self.process.space.map(
                STACK_SIZE, address=base, name=f"stack:{thread.tid}", kind="stack"
            )
            area = StackArea(mapping)
            self._stacks[thread.tid] = area
        return area

    def stack_alloc(self, thread: Thread, name: str, type_: TypeDesc) -> int:
        """Allocate a tracked stack variable for ``thread``.

        Tagged under static instrumentation (but only threads blocked at
        quiescent points have their stacks traced, per the paper).
        """
        area = self.stack_area(thread)
        address = area.alloc(name, type_)
        build = self._build
        if build is not None and build.static_instr:
            self.process.tags.register(
                address, type_, ORIGIN_STACK, site=f"{thread.top_function()}:{name}", name=name
            )
        return address

    def stack_mark(self, thread: Thread) -> Tuple[int, int]:
        return self.stack_area(thread).mark()

    def stack_release(self, thread: Thread, mark: Tuple[int, int]) -> None:
        area = self.stack_area(thread)
        for name, address, _type in area.overlay[mark[1]:]:
            self.process.tags.unregister(address)
        area.release(mark)

    # -- helpers ------------------------------------------------------------------------------

    def _site_id(self, thread: Optional[Thread]) -> int:
        if thread is None:
            return 0
        return call_stack_id(thread.call_stack)

    def _site_name(self, thread: Optional[Thread]) -> str:
        if thread is None:
            return "<unknown>"
        return "/".join(thread.call_stack)
