"""The likely-pointer scan index: one classifier, two array backends.

A :class:`PreparedScanIndex` is a snapshot of a process's resolvable
address ranges as sorted, disjoint segments, each carrying its resolution
payload ``(object base, size, tag alignment or None, ...)``.  It answers
the two questions tracing asks:

* ``lookup(address)`` — the payload of the segment containing one
  address (a single ``bisect``), for the precise walk;
* ``classify(window)`` — every aligned 64-bit word of a memory window
  that is a likely pointer, for the conservative scanner.  The whole
  window is processed at once and Python only touches the survivors.

``classify`` has two implementations of the same predicate, chosen once
at import from what the interpreter can import and nothing else:

* :class:`NumpyScanIndex` — ``frombuffer`` the window as little-endian
  ``uint64``, reject out-of-bounds words with one mask, bucket the rest
  against the segments with ``searchsorted``, and apply containment and
  tag-alignment rejection as array operations;
* :class:`StdlibScanIndex` — ``memoryview.cast('Q')`` plus a tight
  ``bisect`` loop, for installs without numpy (the optional ``fast``
  extra, see ``pyproject.toml``).

Both are equivalence-tested against the per-word reference scanner
(``repro.mcr.tracing.conservative.scan_range_ref``) — identical likely
pointers, identical ``words_scanned`` — and against each other, down to
the candidate count.
"""

from __future__ import annotations

import bisect as _bisect
import struct as _struct
import sys as _sys
from array import array as _array
from hashlib import blake2b as _blake2b
from typing import List, Optional, Sequence, Tuple

_NATIVE_LITTLE_ENDIAN = _sys.byteorder == "little"

try:  # numpy is optional (the ``fast`` extra); the stdlib path is complete.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on bare installs
    _np = None


class PreparedScanIndex:
    """Sorted, disjoint resolvable segments plus their payloads.

    ``lo``/``hi`` bound everything that resolves: a word outside
    ``lo <= v < hi`` is rejected without a segment lookup, and the words
    inside are the *candidates* ``classify`` counts (``lo`` is never 0
    for a non-empty index, so a zero word is never a candidate).
    """

    __slots__ = ("starts", "ends", "payloads", "lo", "hi", "bases", "aligns", "_digest")

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
        classify any window identically, whichever backend built them.
        Computed on first use — once per trace that memoizes its scans.
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
        raise NotImplementedError


class StdlibScanIndex(PreparedScanIndex):
    """Pure-stdlib classification: one bisect per in-bounds candidate."""

    __slots__ = ()
    name = "stdlib"

    def classify(self, window: memoryview):
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
        for position, value in enumerate(words):
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


class NumpyScanIndex(PreparedScanIndex):
    """numpy classification: the whole window as one array pipeline."""

    __slots__ = ("_starts", "_ends", "_bases", "_aligns")
    name = "numpy"

    def __init__(self, starts, ends, payloads) -> None:
        super().__init__(starts, ends, payloads)
        self._starts = _np.asarray(self.starts, dtype=_np.uint64)
        self._ends = _np.asarray(self.ends, dtype=_np.uint64)
        self._bases = _np.asarray(self.bases, dtype=_np.uint64)
        self._aligns = _np.asarray(self.aligns, dtype=_np.uint64)

    def classify(self, window: memoryview):
        words = _np.frombuffer(window, dtype="<u8")
        in_bounds = (words >= self.lo) & (words < self.hi)
        candidates = int(_np.count_nonzero(in_bounds))
        if not candidates:
            return [], [], [], 0
        positions = _np.nonzero(in_bounds)[0]
        values = words[positions]
        # Predecessor-by-start segment lookup, vectorized: identical to
        # ``bisect_right(starts, v) - 1`` plus the containment check.
        segment = _np.searchsorted(self._starts, values, side="right") - 1
        contained = values < self._ends[segment]
        positions = positions[contained]
        if not positions.size:
            return [], [], [], candidates
        values = values[contained]
        segment = segment[contained]
        bases = self._bases[segment]
        # Tag-assisted rejection: align of 1 (untagged) accepts everything.
        aligned = (values - bases) % self._aligns[segment] == 0
        return (
            positions[aligned].tolist(),
            values[aligned].tolist(),
            bases[aligned].tolist(),
            candidates,
        )


# The index class tracing builds: numpy when importable, stdlib otherwise.
ACTIVE = NumpyScanIndex if _np is not None else StdlibScanIndex
