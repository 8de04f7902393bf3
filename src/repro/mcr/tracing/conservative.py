"""Conservative tracing: likely-pointer scanning of opaque memory.

"MCR operates similarly to a conservative garbage collector, scanning
opaque (i.e., type-ambiguous) memory areas looking for likely pointers —
that is, aligned memory words that point to a valid live object in
memory" (§6).  Two refinements from the paper are implemented:

* when the pointed-to object carries a data-type tag, unaligned candidates
  (with respect to the target's alignment) are rejected;
* interior pointers are accepted and recorded as such (the offset into the
  target is preserved at fixup time).

The scanner never *writes*; it only reports candidate words.  Which words
resolve to a live object is decided by the caller's scan index
(``repro.mem.scan_backend.PreparedScanIndex``), so the same scanner serves
heap chunks, region blocks, statics, and library areas.

``scan_range`` and ``scan_words`` are the scanners tracing runs: each
hands its words to ``index.classify`` as one window.  ``scan_range_ref``
reads and resolves one word at a time through a ``resolve`` callable.  It
serves the one input the window scanner cannot — a range not backed by a
single mapping, where the words before the fault must still be scanned —
and it is the oracle the equivalence tests and ``bench scanperf`` compare
against: identical ``LikelyPointer`` lists and ``words_scanned`` counts.
The tests keep ``scan_words``' per-word reference (``tests/scan_oracles.py``).
"""

from __future__ import annotations

import struct as _struct
from typing import Callable, Iterable, List, Optional, Tuple

from repro import obs
from repro.errors import MemoryFault
from repro.mem.address_space import AddressSpace
from repro.mem.scan_backend import PreparedScanIndex
from repro.types.descriptors import WORD_SIZE

# ``(target_base, target_size, target_align, ...)`` for an address inside a
# live object (``target_align`` of ``None`` means no tag — accept any
# alignment), else ``None``.  ``PreparedScanIndex.lookup`` is one.
ResolveFn = Callable[[int], Optional[Tuple]]


class LikelyPointer:
    """One aligned word that resolves to a live object."""

    __slots__ = ("slot_address", "value", "target_base", "interior")

    def __init__(self, slot_address: int, value: int, target_base: int, interior: bool) -> None:
        self.slot_address = slot_address
        self.value = value
        self.target_base = target_base
        self.interior = interior

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "interior" if self.interior else "base"
        return f"<LikelyPointer @0x{self.slot_address:x} -> 0x{self.value:x} ({kind})>"


def _publish(words: int, calls: int, from_ref: bool) -> None:
    """Feed scan volume counters to the active collector (one incr per range)."""
    collector = obs.ACTIVE
    if collector is None:
        return
    counters = collector.counters
    counters.incr("scan.words", words)
    counters.incr("scan.resolve_calls", calls)
    if from_ref:
        counters.incr("scan.ranges_ref", 1)
    else:
        counters.incr("scan.ranges_bulk", 1)


def scan_range(
    space: AddressSpace,
    start: int,
    size: int,
    index: PreparedScanIndex,
) -> Tuple[List[LikelyPointer], int]:
    """Scan ``[start, start+size)`` for likely pointers.

    Returns the likely pointers found and the number of words scanned
    (cost-model input) — both byte-identical to ``scan_range_ref`` over
    ``index.lookup``.
    """
    # Words must themselves be aligned in memory.
    first = (start + WORD_SIZE - 1) // WORD_SIZE * WORD_SIZE
    end = start + size
    count = (end - first) // WORD_SIZE
    if count <= 0:
        return [], 0
    try:
        window = space.view(first, count * WORD_SIZE)
    except MemoryFault:
        # The range is not backed by a single mapping (crosses a boundary
        # or touches unmapped memory): the reference scanner reproduces
        # the per-word fault semantics exactly.
        return scan_range_ref(space, start, size, index.lookup)
    positions, values, targets, calls = index.classify(window)
    found = [
        LikelyPointer(first + position * WORD_SIZE, value, target, value != target)
        for position, value, target in zip(positions, values, targets)
    ]
    _publish(count, calls, from_ref=False)
    return found, count


def scan_range_ref(
    space: AddressSpace,
    start: int,
    size: int,
    resolve: ResolveFn,
) -> Tuple[List[LikelyPointer], int]:
    """Reference per-word scanner: one mapping lookup + copy per word."""
    found: List[LikelyPointer] = []
    first = (start + WORD_SIZE - 1) // WORD_SIZE * WORD_SIZE
    end = start + size
    words_scanned = 0
    calls = 0
    cursor = first
    while cursor + WORD_SIZE <= end:
        value = space.read_word(cursor)
        words_scanned += 1
        cursor += WORD_SIZE
        if value == 0:
            continue
        calls += 1
        resolved = resolve(value)
        if resolved is None:
            continue
        target_base, target_align = resolved[0], resolved[2]
        if target_align is not None and (value - target_base) % target_align != 0:
            # Tag-assisted rejection of illegal (unaligned) candidates.
            continue
        found.append(
            LikelyPointer(cursor - WORD_SIZE, value, target_base, value != target_base)
        )
    _publish(words_scanned, calls, from_ref=True)
    return found, words_scanned


def scan_words(
    space: AddressSpace,
    offsets: Iterable[int],
    base: int,
    index: PreparedScanIndex,
) -> Tuple[List[LikelyPointer], int]:
    """Scan specific word offsets (the pointer-sized-integer policy).

    The slots are read one by one (they need not be contiguous, and a
    bad one faults as a word read does), then classified together as one
    packed window.
    """
    slots = [base + offset for offset in offsets]
    read_word = space.read_word
    window = memoryview(
        _struct.pack(f"<{len(slots)}Q", *[read_word(slot) for slot in slots])
    )
    positions, values, targets, calls = index.classify(window)
    found = [
        LikelyPointer(slots[position], value, target, value != target)
        for position, value, target in zip(positions, values, targets)
    ]
    _publish(len(slots), calls, from_ref=False)
    return found, len(slots)
