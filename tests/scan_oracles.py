"""The per-word offset scanner ``conservative.scan_words`` replaced.

It reads and resolves one word at a time through a ``resolve`` callable,
like ``conservative.scan_range_ref`` (which stays in the product: it is
the window scanner's fallback for a range no single mapping backs).
``tests/test_scan_fastpath.py`` holds ``scan_words`` to it: identical
``LikelyPointer`` lists and ``words_scanned`` counts.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.mcr.tracing.conservative import LikelyPointer, ResolveFn, _publish
from repro.mem.address_space import AddressSpace


def scan_words_ref(
    space: AddressSpace,
    offsets: Iterable[int],
    base: int,
    resolve: ResolveFn,
) -> Tuple[List[LikelyPointer], int]:
    """Reference per-word offset scanner."""
    found: List[LikelyPointer] = []
    words_scanned = 0
    calls = 0
    for offset in offsets:
        slot = base + offset
        value = space.read_word(slot)
        words_scanned += 1
        if value == 0:
            continue
        calls += 1
        resolved = resolve(value)
        if resolved is None:
            continue
        target_base, target_align = resolved[0], resolved[2]
        if target_align is not None and (value - target_base) % target_align != 0:
            continue
        found.append(LikelyPointer(slot, value, target_base, value != target_base))
    _publish(words_scanned, calls, from_ref=True)
    return found, words_scanned
