"""The likely-pointer scan index: one classifier, standard library only.

A :class:`PreparedScanIndex` is a snapshot of a process's resolvable
address ranges as sorted, disjoint segments, each carrying its resolution
payload ``(object base, size, tag alignment or None, ...)``.  It answers
the two questions tracing asks:

* ``lookup(address)`` — the payload of the segment containing one
  address (a single ``bisect``), for the precise walk;
* ``classify(window)`` — every aligned 64-bit word of a memory window
  that is a likely pointer, for the conservative scanner.  The window is
  read as ``memoryview.cast('Q')``, zero words are dropped in C by
  ``itertools.compress``, and Python runs one ``bisect`` per in-bounds
  word that is left.

``classify`` is equivalence-tested against the per-word reference scanner
(``repro.mcr.tracing.conservative.scan_range_ref``) and a plain per-word
bisect reference — identical likely pointers, identical ``words_scanned``,
identical candidate count.
"""

from __future__ import annotations

import bisect as _bisect
import struct as _struct
import sys as _sys
from array import array as _array
from hashlib import blake2b as _blake2b
from itertools import compress as _compress
from typing import List, Optional, Sequence, Tuple

_NATIVE_LITTLE_ENDIAN = _sys.byteorder == "little"


class PreparedScanIndex:
    """Sorted, disjoint resolvable segments plus their payloads.

    ``lo``/``hi`` bound everything that resolves: a word outside
    ``lo <= v < hi`` is rejected without a segment lookup, and the words
    inside are the *candidates* ``classify`` counts (``lo`` is never 0
    for a non-empty index, so a zero word is never a candidate).
    """

    __slots__ = ("starts", "ends", "payloads", "lo", "hi", "bases", "aligns", "_digest")
    name = "stdlib"

    def __init__(
        self, starts: Sequence[int], ends: Sequence[int], payloads: Sequence[Tuple]
    ) -> None:
        self.starts = starts
        self.ends = ends
        self.payloads = payloads
        self.lo = starts[0] if starts else 0
        self.hi = ends[-1] if ends else 0
        # Per-segment object base and tag alignment (None -> 1: accept any).
        self.bases = [p[0] for p in payloads]
        self.aligns = [p[2] or 1 for p in payloads]
        self._digest: Optional[bytes] = None

    def layout_digest(self) -> bytes:
        """A 128-bit digest of everything ``classify`` reads.

        ``starts`` / ``ends`` / ``bases`` / ``aligns`` (``lo`` and ``hi``
        are their first and last entries): two indexes with equal digests
        classify any window identically.  Computed on first use — once
        per trace that memoizes its scans.
        """
        digest = self._digest
        if digest is None:
            hasher = _blake2b(digest_size=16)
            for column in (self.starts, self.ends, self.bases, self.aligns):
                hasher.update(_array("Q", column).tobytes())
            digest = self._digest = hasher.digest()
        return digest

    def lookup(self, address: int) -> Optional[Tuple]:
        """The payload of the segment containing ``address``, or None."""
        i = _bisect.bisect_right(self.starts, address) - 1
        if i >= 0 and address < self.ends[i]:
            return self.payloads[i]
        return None

    def classify(self, window: memoryview) -> Tuple[List[int], List[int], List[int], int]:
        """Classify every aligned word in ``window``.

        Returns ``(positions, values, target_bases, candidates)`` where
        the first three are parallel lists describing the surviving
        likely pointers (word index within the window, raw value, object
        base) and ``candidates`` counts the words inside ``[lo, hi)`` —
        what feeds ``scan.resolve_calls``.
        """
        if _NATIVE_LITTLE_ENDIAN:
            words = window.cast("Q")
        else:  # pragma: no cover - big-endian hosts
            words = [w for (w,) in _struct.iter_unpack("<Q", window)]
        lo, hi = self.lo, self.hi
        starts, ends = self.starts, self.ends
        bases, aligns = self.bases, self.aligns
        bisect_right = _bisect.bisect_right
        positions: List[int] = []
        values: List[int] = []
        targets: List[int] = []
        candidates = 0
        # A zero word is never a candidate (``lo > 0``): skip them in C.
        for position, value in _compress(enumerate(words), words):
            if value < lo or value >= hi:
                continue
            candidates += 1
            i = bisect_right(starts, value) - 1
            if i < 0 or value >= ends[i]:
                continue
            base = bases[i]
            if (value - base) % aligns[i]:
                continue
            positions.append(position)
            values.append(value)
            targets.append(base)
        return positions, values, targets, candidates


# The classifier, under the name perfbench reads ``ACTIVE.name`` from to
# stamp its results.
ACTIVE = PreparedScanIndex
