"""Object records, address resolution, and the hybrid walk driver.

``GraphBuilder`` reconstructs the old version's reachable program state:
starting from root objects (global variables, plus the stack variables of
threads parked at quiescent points) it traverses *precisely* wherever a
data-type tag provides layout, and hands every opaque byte range — untagged
allocations, unions, char buffers, pointer-sized integers per policy — to
the conservative scanner.  The result is the object graph plus the
precise/likely pointer statistics of the paper's Table 2.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.kernel.process import Process
from repro.mcr.config import MCRConfig
from repro.mcr.tracing import conservative, precise
from repro.mem.scan_backend import PreparedScanIndex
from repro.mem.tags import DataTag
from repro.types.descriptors import WORD_SIZE, TypeDesc

# Memory regions for Table-2 classification.
REGION_STATIC = "static"
REGION_DYNAMIC = "dynamic"
REGION_LIB = "lib"

_KIND_TO_REGION = {
    "data": REGION_STATIC,
    "stack": REGION_STATIC,
    "heap": REGION_DYNAMIC,
    "mmap": REGION_DYNAMIC,
    "lib": REGION_LIB,
}

# The three questions a walk puts to memory (``GraphBuilder.transcript``):
# one word, one contiguous range scanned for likely pointers, and the
# pointer-sized-integer slots of one object scanned likewise.
ASKED_WORD = "word"
ASKED_RANGE = "range"
ASKED_WORDS = "words"


def stack_roots(process: Process) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """Per live thread with a stack area: its tid and the addresses of its
    overlay's stack variables — the roots a walk takes from stacks."""
    crt = getattr(process, "crt", None)
    stacks = crt._stacks if crt is not None else {}
    return tuple(
        (thread.tid, tuple(address for _name, address, _type in area.overlay))
        for thread in process.live_threads()
        if (area := stacks.get(thread.tid)) is not None
    )


class ObjectRecord:
    """One state object discovered in the old version."""

    __slots__ = (
        "base",
        "size",
        "region",
        "type",
        "tag",
        "site",
        "name",
        "startup",
        "immutable",
        "nonupdatable",
        "conservatively_traversed",
        "is_root",
        "visited",
        "gap_ranges",
    )

    def __init__(
        self,
        base: int,
        size: int,
        region: str,
        type_: Optional[TypeDesc] = None,
        tag: Optional[DataTag] = None,
    ) -> None:
        self.base = base
        self.size = size
        self.region = region
        self.type = type_
        self.tag = tag
        self.site = tag.site if tag is not None else ""
        self.name = tag.name if tag is not None else ""
        self.startup = False
        self.immutable = False
        self.nonupdatable = False
        self.conservatively_traversed = False
        self.is_root = False
        self.visited = False
        # For container blocks holding tagged sub-objects (instrumented
        # custom allocators): the untagged (offset, size) gaps that were
        # conservatively scanned — the only bytes transfer copies verbatim.
        self.gap_ranges = None

    @property
    def end(self) -> int:
        return self.base + self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            c
            for c, on in (
                ("I", self.immutable),
                ("N", self.nonupdatable),
                ("C", self.conservatively_traversed),
                ("R", self.is_root),
            )
            if on
        )
        label = self.name or self.site or (self.type.name if self.type else "opaque")
        return f"<Obj 0x{self.base:x}+{self.size} {self.region} {label} [{flags}]>"


class PointerSlot:
    """One traced pointer: where it sits and what it targets."""

    __slots__ = ("slot_address", "value", "target_base", "kind", "interior")

    def __init__(
        self,
        slot_address: int,
        value: int,
        target_base: int,
        kind: str,  # "precise" | "likely"
        interior: bool,
    ) -> None:
        self.slot_address = slot_address
        self.value = value
        self.target_base = target_base
        self.kind = kind
        self.interior = interior


def _level_segments(
    items: List[Tuple[int, int, Tuple]]
) -> List[Tuple[int, int, Tuple]]:
    """One cascade level as disjoint segments, sorted by start.

    ``items`` must be sorted by start.  Each interval's effective
    coverage ends at the next interval's start (predecessor-only
    lookup semantics): an address past that point finds the *next*
    interval as its predecessor, which may not contain it.
    """
    items = sorted(items, key=lambda item: item[0])
    segments: List[Tuple[int, int, Tuple]] = []
    for i, (start, end, payload) in enumerate(items):
        if i + 1 < len(items):
            end = min(end, items[i + 1][0])
        if end > start:
            segments.append((start, end, payload))
    return segments


def _merge(
    levels: List[List[Tuple[int, int, Tuple]]]
) -> Tuple[List[int], List[int], List[Tuple]]:
    """Flatten priority-ordered levels into non-overlapping segments."""
    boundaries = sorted(
        {edge for segments in levels for s, e, _ in segments for edge in (s, e)}
    )
    level_starts = [[s for s, _, _ in segments] for segments in levels]
    starts: List[int] = []
    ends: List[int] = []
    payloads: List[Tuple] = []
    for j in range(len(boundaries) - 1):
        lo, hi = boundaries[j], boundaries[j + 1]
        chosen: Optional[Tuple] = None
        for level, segments in enumerate(levels):
            k = bisect.bisect_right(level_starts[level], lo) - 1
            if k >= 0 and segments[k][1] > lo:
                chosen = segments[k][2]
                break
        if chosen is None:
            continue
        if starts and ends[-1] == lo and payloads[-1] is chosen:
            ends[-1] = hi  # coalesce adjacent same-payload segments
        else:
            starts.append(lo)
            ends.append(hi)
            payloads.append(chosen)
    return starts, ends, payloads


def live_segments(process: Process) -> Tuple[List[int], List[int], List[Tuple]]:
    """One process's live objects as a flat, priority-merged interval map.

    Address resolution is a five-level cascade (tags, heap chunks,
    reserved superobject spans, static symbols, library images), each
    level a predecessor-by-base containment lookup — ``AddressResolver``
    below spells it out.  During a trace the process is quiesced and none
    of those levels mutate, so the cascade is snapshotted into sorted,
    non-overlapping segments, each carrying its resolution payload
    ``(base, size, align_or_None, tag_or_None)``: resolution becomes a
    single ``bisect``, and the overwhelming majority of scanned words —
    non-pointer data far outside the first and last segment — are
    rejected with two integer comparisons.

    The per-level segment construction reproduces the cascade's
    predecessor-only semantics exactly (including the nesting quirk where
    an outer tag does not cover addresses past an inner tag's end), so
    index lookups and the cascade return identical results — asserted by
    the equivalence tests and the scanperf benchmark.
    """
    levels: List[List[Tuple[int, int, Tuple]]] = []
    # Level 1: data-type tags (may nest inside container blocks).
    tag_items = [
        (t.address, t.end, (t.address, t.type.size, t.type.align, t))
        for t in process.tags.tags()
    ]
    levels.append(_level_segments(tag_items))
    # Level 2: live heap chunks (user areas; disjoint).
    chunk_items = [
        (c.user_base, c.user_end, (c.user_base, c.user_size, None, None))
        for c in process.heap.chunks()
    ]
    levels.append(_level_segments(chunk_items))
    # Level 3: reserved superobject spans (disjoint by construction).
    reserved_items = [
        (base, base + size, (base, size, None, None))
        for base, size in sorted(process.heap.reserved_ranges().items())
    ]
    levels.append(_level_segments(reserved_items))
    # Level 4: static symbols (disjoint: the loader packs them).
    symbols = getattr(process, "symbols", None)
    if symbols is not None:
        symbol_items = sorted(
            (
                (s.address, s.end, (s.address, s.type.size, s.type.align, None))
                for s in symbols
            ),
            key=lambda item: item[0],
        )
        levels.append(_level_segments(symbol_items))
    # Level 5: library images, at image granularity (disjoint).
    lib_items = [
        (m.base, m.end, (m.base, m.size, None, None))
        for m in process.space.mappings(kind="lib")
    ]
    levels.append(_level_segments(lib_items))
    return _merge(levels)


def snapshot_index(process: Process) -> PreparedScanIndex:
    """The scan index of a quiesced process.

    Valid only while tags/heap/symbols/mappings do not change —
    ``GraphBuilder`` builds one per ``build()``.
    """
    return PreparedScanIndex(*live_segments(process))


class AddressResolver:
    """The resolution cascade itself, one address at a time.

    This is the definition ``live_segments`` flattens and the oracle its
    tests and ``bench scanperf`` compare against; tracing resolves
    through the index.
    """

    def __init__(self, process: Process) -> None:
        self.process = process

    def resolve(self, address: int) -> Optional[Tuple[int, int, Optional[int], Optional[DataTag]]]:
        """Return ``(base, size, align_or_None, tag_or_None)`` or ``None``."""
        process = self.process
        tag = process.tags.find_containing(address)
        if tag is not None:
            return tag.address, tag.type.size, tag.type.align, tag
        chunk = process.heap.find_chunk(address)
        if chunk is not None:
            return chunk.user_base, chunk.user_size, None, None
        # Superobject spans inherited by a previous live update: opaque
        # immutable memory with no chunk bookkeeping.  Without this, a
        # second chained update could not trace pointers into state that
        # the first update pinned.
        reserved = process.heap.reserved_containing(address)
        if reserved is not None:
            return reserved[0], reserved[1], None, None
        symbols = getattr(process, "symbols", None)
        if symbols is not None:
            symbol = symbols.find_containing(address)
            if symbol is not None:
                return symbol.address, symbol.type.size, symbol.type.align, None
        mapping = process.space.mapping_at(address)
        if mapping is not None and mapping.kind == "lib":
            # Untagged library state: resolve at image granularity.
            return mapping.base, mapping.size, None, None
        return None


class TraceResult:
    """The object graph plus pointer statistics for one process."""

    def __init__(self, process: Process) -> None:
        self.process = process
        self.objects: Dict[int, ObjectRecord] = {}
        self.precise_pointers: List[PointerSlot] = []
        self.likely_pointers: List[PointerSlot] = []
        self.dangling_precise = 0
        self.words_scanned = 0
        # Same token, same objects in the same order with the same flags
        # and the same pointer slots: every walk (``build()`` fills a fresh
        # result) has its own, ``rebound`` hands it on — ``TraceMemo``'s
        # proof that two processes were walked alike, kept so nobody
        # derives it again.
        self.shape = object()

    def rebound(self, process: Process) -> "TraceResult":
        """This trace as ``process``'s own: a fresh record per object,
        ``tag`` and ``type`` from its own tag store, the (read-only)
        pointer slots shared.  For a process the walk would have gone
        alike in — ``TraceMemo`` decides that; nothing is re-read here.
        """
        twin = TraceResult(process)
        own_tag = process.tags.lookup
        objects = twin.objects
        new = ObjectRecord.__new__
        for base, record in self.objects.items():
            copy = objects[base] = new(ObjectRecord)
            tag = record.tag
            if tag is not None:
                tag = own_tag(tag.address)
            copy.tag = tag
            copy.type = tag.type if tag is not None else None
            copy.base = base
            copy.size = record.size
            copy.region = record.region
            copy.site = record.site
            copy.name = record.name
            copy.startup = record.startup
            copy.immutable = record.immutable
            copy.nonupdatable = record.nonupdatable
            copy.conservatively_traversed = record.conservatively_traversed
            copy.is_root = record.is_root
            copy.visited = record.visited
            gaps = record.gap_ranges
            copy.gap_ranges = gaps if gaps is None else list(gaps)
        twin.precise_pointers = list(self.precise_pointers)
        twin.likely_pointers = list(self.likely_pointers)
        twin.dangling_precise = self.dangling_precise
        twin.words_scanned = self.words_scanned
        twin.shape = self.shape
        return twin

    # -- Table 2 ------------------------------------------------------------------

    def _classify(self, pointers: List[PointerSlot]) -> Dict[str, int]:
        def region_of(address: int) -> str:
            mapping = self.process.space.mapping_at(address)
            if mapping is None:
                return REGION_DYNAMIC
            return _KIND_TO_REGION.get(mapping.kind, REGION_DYNAMIC)

        counts = {
            "ptr": len(pointers),
            "src_static": 0,
            "src_dynamic": 0,
            "src_lib": 0,
            "targ_static": 0,
            "targ_dynamic": 0,
            "targ_lib": 0,
        }
        for slot in pointers:
            counts[f"src_{region_of(slot.slot_address)}"] += 1
            counts[f"targ_{region_of(slot.target_base)}"] += 1
        return counts

    def table2_row(self) -> Dict[str, Dict[str, int]]:
        return {
            "precise": self._classify(self.precise_pointers),
            "likely": self._classify(self.likely_pointers),
        }

    def immutable_objects(self) -> List[ObjectRecord]:
        return [o for o in self.objects.values() if o.immutable]


class GraphBuilder:
    """Hybrid precise/conservative traversal of one quiesced process."""

    def __init__(
        self,
        process: Process,
        config: Optional[MCRConfig] = None,
        annotations=None,
        memo=None,
    ) -> None:
        self.process = process
        self.config = config or MCRConfig()
        self.annotations = annotations or getattr(
            getattr(process, "program", None), "annotations", None
        )
        self.result = TraceResult(process)
        self._worklist: deque = deque()
        self.index: Optional[PreparedScanIndex] = None  # set by build()
        # The update's ``TraceMemo`` when a controller drives this trace:
        # byte-identical windows under identical layouts (forked siblings'
        # startup pages) are classified once per update, not once each.
        self._memo = memo
        # What the walk asked memory and what it was told, in order:
        # ``(kind, address, extent, answer)``.  Everything else a walk
        # reads is layout, roots and policy, so two processes that agree
        # on those and on every answer here have the same trace
        # (``TraceMemo`` shares one walk between forked siblings this way).
        self.transcript: List[Tuple] = []

    # -- public API ---------------------------------------------------------------

    def build(self) -> TraceResult:
        # The process is quiesced for the duration of a trace, so its live
        # objects can be snapshotted into the scan index.
        self.index = snapshot_index(self.process)
        self._add_static_roots()
        self._add_stack_roots()
        while self._worklist:
            record = self._worklist.popleft()
            if record.visited:
                continue
            record.visited = True
            self._visit(record)
        return self.result

    # -- scan kernel --------------------------------------------------------------

    def _scan_range(self, start: int, size: int):
        """One conservative range scan, through the update's memo if any."""
        if self._memo is not None:
            answer = self._memo.scan(self.process, self.index, start, size)
        else:
            answer = conservative.scan_range(self.process.space, start, size, self.index)
        self.transcript.append((ASKED_RANGE, start, size, answer))
        return answer

    # -- roots -----------------------------------------------------------------------

    def _add_static_roots(self) -> None:
        symbols = getattr(self.process, "symbols", None)
        if symbols is None:
            return
        for symbol in symbols:
            record = self._intern(symbol.address)
            if record is not None:
                record.is_root = True
                record.name = record.name or symbol.name

    def _add_stack_roots(self) -> None:
        for _tid, addresses in stack_roots(self.process):
            for address in addresses:
                record = self._intern(address)
                if record is not None:
                    record.is_root = True

    # -- interning ----------------------------------------------------------------------

    def _intern(self, address: int) -> Optional[ObjectRecord]:
        resolved = self.index.lookup(address)
        if resolved is None:
            return None
        base, size, _align, tag = resolved
        record = self.result.objects.get(base)
        if record is None:
            region = _KIND_TO_REGION.get(
                getattr(self.process.space.mapping_at(base), "kind", "heap"),
                REGION_DYNAMIC,
            )
            type_ = tag.type if tag is not None else None
            record = ObjectRecord(base, size, region, type_, tag)
            chunk = self.process.heap.find_chunk(base)
            if chunk is not None:
                record.startup = chunk.startup
                if not record.site:
                    record.site = str(chunk.site_id)
            self.result.objects[base] = record
            self._worklist.append(record)
        return record

    # -- visiting ------------------------------------------------------------------------

    def _visit(self, record: ObjectRecord) -> None:
        if record.region == REGION_LIB and not self.config.transfer_shared_libs:
            # Library state is not analyzed by default (paper §6); the
            # object exists (it can be a likely-pointer target) but its
            # contents stay unscanned.
            return
        if (
            self.annotations is not None
            and record.name in self.annotations.encoded_pointers
        ):
            # Annotated encoded pointer (nginx low-bit idiom, union-hidden
            # pointers): decode precisely even though the type is opaque.
            self._visit_encoded(record)
            return
        forced_opaque = (
            self.annotations is not None
            and (record.name in self.annotations.opaque_overrides)
        )
        if record.type is not None and not forced_opaque and not record.type.is_opaque():
            self._visit_precise(record)
        else:
            self._visit_conservative(record, 0, record.size)

    def _visit_encoded(self, record: ObjectRecord) -> None:
        """Decode an annotated encoded-pointer object precisely."""
        space = self.process.space
        mask = self.annotations.encoded_pointers[record.name]
        word = space.read_word(record.base)
        self.transcript.append((ASKED_WORD, record.base, WORD_SIZE, word))
        value = word & ~mask
        if value:
            resolved = self.index.lookup(value)
            if resolved is not None:
                target_base = resolved[0]
                if self._intern(target_base) is not None:
                    self.result.precise_pointers.append(
                        PointerSlot(
                            record.base,
                            value,
                            target_base,
                            "precise",
                            value != target_base,
                        )
                    )

    def _visit_precise(self, record: ObjectRecord) -> None:
        space = self.process.space
        asked = self.transcript.append
        for offset, _ptr_type in precise.pointer_slots(record.type):
            slot = record.base + offset
            value = space.read_word(slot)
            asked((ASKED_WORD, slot, WORD_SIZE, value))
            if value == 0:
                continue
            resolved = self.index.lookup(value)
            if resolved is None:
                self.result.dangling_precise += 1
                continue
            target_base, _size, _align, _tag = resolved
            target = self._intern(target_base)
            if target is None:
                continue
            self.result.precise_pointers.append(
                PointerSlot(slot, value, target_base, "precise", value != target_base)
            )
        for offset, size in precise.opaque_ranges(record.type):
            self._visit_conservative(record, offset, size)
        if self.config.scan_opaque_int64:
            slots = precise.int_word_slots(record.type)
            if slots:
                answer = conservative.scan_words(
                    self.process.space, slots, record.base, self.index
                )
                asked((ASKED_WORDS, record.base, slots, answer))
                found, scanned = answer
                self.result.words_scanned += scanned
                self._absorb_likely(record, found)

    def _visit_conservative(self, record: ObjectRecord, offset: int, size: int) -> None:
        start = record.base + offset
        end = start + size
        # An untyped container (e.g. a region block from an *instrumented*
        # custom allocator) may hold tagged sub-objects: trace those
        # precisely and scan only the untagged gaps conservatively.  This
        # is what converts likely pointers into precise ones in the
        # paper's nginx_reg configuration.
        inner = []
        if record.tag is None:
            inner = [
                t
                for t in self.process.tags.tags_in_range(start, end)
                if t.address != record.base
            ]
        if offset == 0 and size == record.size:
            record.conservatively_traversed = True
        if inner:
            gaps = []
            cursor = start
            for tag in inner:
                if tag.address > cursor:
                    gaps.append((cursor - record.base, tag.address - cursor))
                self._intern(tag.address)
                cursor = max(cursor, tag.end)
            if cursor < end:
                gaps.append((cursor - record.base, end - cursor))
            record.gap_ranges = gaps
            for gap_offset, gap_size in gaps:
                found, scanned = self._scan_range(record.base + gap_offset, gap_size)
                self.result.words_scanned += scanned
                self._absorb_likely(record, found)
            return
        found, scanned = self._scan_range(start, size)
        self.result.words_scanned += scanned
        self._absorb_likely(record, found)

    def _absorb_likely(self, container: ObjectRecord, found: List[conservative.LikelyPointer]) -> None:
        for likely in found:
            target = self._intern(likely.target_base)
            if target is None:
                continue
            # Invariants (paper §6): targets of likely pointers cannot be
            # relocated nor type-transformed; containers of likely pointers
            # cannot be type-transformed.  The optional interior-only
            # refinement keeps base-pointer targets type-transformable.
            target.immutable = True
            if likely.interior or not self.config.interior_only_nonupdatable:
                target.nonupdatable = True
            container.nonupdatable = True
            self.result.likely_pointers.append(
                PointerSlot(
                    likely.slot_address,
                    likely.value,
                    likely.target_base,
                    "likely",
                    likely.interior,
                )
            )
