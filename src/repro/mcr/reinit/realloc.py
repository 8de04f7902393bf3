"""Global reallocation: immutable memory objects at identical addresses.

Conservative tracing marks some old-version memory objects *immutable*
(likely-pointer targets that cannot be safely relocated).  The new version
must present each of them at exactly its old address.  Per the paper (§5):

* **static objects** — a linker script pins the symbol at its old address
  (``pinned_symbols`` consumed by the loader);
* **shared libraries** — prelinked copies are mapped at the old base
  (``lib_bases`` consumed by the loader);
* **heap objects** — overlapping objects are coalesced into *superobjects*
  that dedicated allocator support reserves in the fresh heap before the
  new version's startup allocations run (``PtMallocHeap.reserve_range``).

The immutability analysis itself runs *offline* (before the update), as in
the paper — that is why the build step for a new version takes a
``GlobalRealloc`` plan computed against the running old version.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.mem.ptmalloc import PtMallocHeap


class Superobject:
    """A coalesced span of immutable old-version heap memory."""

    __slots__ = ("base", "size")

    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.size = size

    @property
    def end(self) -> int:
        return self.base + self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Superobject [0x{self.base:x}, 0x{self.end:x})>"


def coalesce(spans: List[Tuple[int, int]], gap: int = 64) -> List[Superobject]:
    """Merge (address, size) spans closer than ``gap`` into superobjects.

    Coalescing keeps the reservation count small and absorbs allocator
    headers/padding between neighbouring immutable chunks.
    """
    if not spans:
        return []
    ordered = sorted(spans)
    merged: List[Superobject] = []
    current_base, current_end = ordered[0][0], ordered[0][0] + ordered[0][1]
    for base, size in ordered[1:]:
        end = base + size
        if base <= current_end + gap:
            current_end = max(current_end, end)
        else:
            merged.append(Superobject(current_base, current_end - current_base))
            current_base, current_end = base, end
    merged.append(Superobject(current_base, current_end - current_base))
    return merged


class GlobalRealloc:
    """The per-process reallocation plan for one update."""

    def __init__(self) -> None:
        # Keyed by old-version pid (== new-version pid after forcing).
        self.heap_superobjects: Dict[int, List[Superobject]] = {}
        self.pinned_symbols: Dict[str, int] = {}
        self.lib_bases: Dict[str, int] = {}

    # -- plan construction (offline analysis output) --------------------------------

    def add_heap_spans(self, pid: int, spans: List[Tuple[int, int]]) -> None:
        self.heap_superobjects[pid] = coalesce(
            [(b, s) for b, s in spans] + [(o.base, o.size) for o in self.heap_superobjects.get(pid, [])]
        )

    def pin_symbol(self, name: str, address: int) -> None:
        self.pinned_symbols[name] = address

    def pin_library(self, name: str, base: int) -> None:
        self.lib_bases[name] = base

    # -- application in the new version ------------------------------------------------

    def union_superobjects(self) -> List[Superobject]:
        """Coalesce superobjects across all processes.

        Forked processes share heap addresses (their spaces are clones),
        so per-pid spans overlap; the new version's *root* heap reserves
        the union once and fork propagates it tree-wide.
        """
        spans = [
            (o.base, o.size)
            for per_pid in self.heap_superobjects.values()
            for o in per_pid
        ]
        return coalesce(spans)

    def apply_union_to_heap(self, heap: PtMallocHeap) -> List[Superobject]:
        """Reserve the cross-process union in one (root) heap."""
        reserved: List[Superobject] = []
        for superobject in self.union_superobjects():
            heap.reserve_range(superobject.base, superobject.size)
            reserved.append(superobject)
        return reserved
