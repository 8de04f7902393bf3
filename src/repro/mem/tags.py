"""Relocation and data-type tags.

The tag store is MCR's "precise" half: static instrumentation registers a
tag for every static object, and the allocator wrappers register a tag for
every *instrumented* dynamic allocation (malloc — or region allocations in
the ``nginx_reg`` configuration).  An object with a tag can be precisely
traced and type-transformed; an object without one is opaque and falls to
the conservative scanner.

Tags are the paper's chosen precise-tracing representation ("in-memory data
type tags associated to the individual state objects", §6), preferred over
compiler-generated traversal functions because MCR must "seamlessly switch
from precise to conservative tracing as needed at runtime".  The paper also
notes the tags are deliberately space-inefficient; the memory-usage
benchmark charges their footprint through ``overhead_bytes``.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.types.descriptors import TypeDesc

# Per-tag logical footprint, matching the paper's remark that tags are
# space-hungry: address + type id + site + origin + relocation info.
TAG_OVERHEAD_BYTES = 64

ORIGIN_STATIC = "static"
ORIGIN_HEAP = "heap"
ORIGIN_REGION = "region"
ORIGIN_STACK = "stack"
ORIGIN_LIB = "lib"


class DataTag(NamedTuple):
    """Type + relocation metadata for one state object.

    Written once: a tag is never edited after ``register`` made it (a
    re-registration installs a new one), so ``fork`` hands the child the
    parent's tag objects and copies only the table that holds them.
    """

    address: int
    type: TypeDesc
    origin: str
    site: str = ""  # allocation site / symbol name, for cross-version pairing
    tag_id: int = 0
    name: str = ""

    @property
    def end(self) -> int:
        return self.address + self.type.size

    def contains(self, address: int) -> bool:
        return self[0] <= address < self[0] + self[1].size  # address, type: by index, it is hot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DataTag 0x{self.address:x} {self.type.name} {self.origin}/{self.site}>"


class TagStore:
    """All tags of one process, with containing-address lookup."""

    def __init__(self) -> None:
        self._by_address: Dict[int, DataTag] = {}
        self._sorted_addresses: List[int] = []
        self._next_tag_id = 1
        self.register_count = 0  # instrumentation work done (cost model)

    def register(
        self,
        address: int,
        type_: TypeDesc,
        origin: str,
        site: str = "",
        name: str = "",
    ) -> DataTag:
        if address in self._by_address:
            # Re-registration replaces (e.g. realloc'd slot reused).
            self.unregister(address)
        # ``DataTag(...)`` without its Python-level ``__new__`` frame: one per malloc.
        tag = tuple.__new__(DataTag, (address, type_, origin, site, self._next_tag_id, name))
        self._next_tag_id += 1
        self._by_address[address] = tag
        bisect.insort(self._sorted_addresses, address)
        self.register_count += 1
        return tag

    def tags_in_range(self, start: int, end: int) -> List[DataTag]:
        """Tags whose object starts in [start, end), ascending by address."""
        lo = bisect.bisect_left(self._sorted_addresses, start)
        hi = bisect.bisect_left(self._sorted_addresses, end)
        return [self._by_address[a] for a in self._sorted_addresses[lo:hi]]

    def unregister_range(self, start: int, end: int) -> int:
        """Drop every tag whose object starts in [start, end).

        Used when a custom-allocator region is destroyed wholesale: the
        instrumented wrapper registered per-allocation tags that must die
        with the backing block.
        """
        lo = bisect.bisect_left(self._sorted_addresses, start)
        hi = bisect.bisect_left(self._sorted_addresses, end)
        doomed = self._sorted_addresses[lo:hi]
        for address in doomed:
            del self._by_address[address]
        del self._sorted_addresses[lo:hi]
        return len(doomed)

    def unregister(self, address: int) -> Optional[DataTag]:
        tag = self._by_address.pop(address, None)
        if tag is not None:
            index = bisect.bisect_left(self._sorted_addresses, address)
            del self._sorted_addresses[index]
        return tag

    def lookup(self, address: int) -> Optional[DataTag]:
        """Tag whose object starts exactly at ``address``."""
        return self._by_address.get(address)

    def find_containing(self, address: int) -> Optional[DataTag]:
        """Tag whose object's storage contains ``address``."""
        index = bisect.bisect_right(self._sorted_addresses, address) - 1
        if index < 0:
            return None
        tag = self._by_address[self._sorted_addresses[index]]
        if tag.contains(address):
            return tag
        return None

    def tags(self, origin: Optional[str] = None) -> Iterator[DataTag]:
        for address in list(self._sorted_addresses):
            tag = self._by_address.get(address)
            if tag is not None and (origin is None or tag.origin == origin):
                yield tag

    def table(self) -> Tuple[DataTag, ...]:
        """Every tag, in table order, as one comparable value (forked
        siblings hold the same objects, so comparing two is mostly ``is``)."""
        return tuple(self._by_address.values())

    def __len__(self) -> int:
        return len(self._by_address)

    def overhead_bytes(self) -> int:
        """Logical metadata footprint (memory-usage benchmark input)."""
        return len(self._by_address) * TAG_OVERHEAD_BYTES

    def release(self) -> None:
        """exit(): drop this store's own table; the tags in it may be a
        forked sibling's too, so they are left alone."""
        self._by_address = {}
        self._sorted_addresses = []

    def clone(self) -> "TagStore":
        """fork(): the table follows the address space; the (write-once)
        tags in it are shared, not copied."""
        twin = TagStore()
        twin._next_tag_id = self._next_tag_id
        twin.register_count = self.register_count
        twin._by_address = dict(self._by_address)
        twin._sorted_addresses = list(self._sorted_addresses)
        return twin
