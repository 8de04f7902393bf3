"""Dirty-page-incremental conservative scanning.

One live update traces every old-version process **twice**: once during
offline analysis (to compute the immutable set and the reallocation plan)
and once during state transfer.  Between the two sweeps the old tree is
quiesced — nothing writes its memory — so the second sweep's conservative
scans are byte-for-byte repeats of the first.  CRIU-style systems exploit
exactly this with page-granular incremental dumps (pre-dump + soft-dirty
tracking); the analogue here is a per-process **scan cache**:

* every ``scan_range`` result is remembered, keyed by ``(start, size)``,
  together with the ``PageTracker.write_seq`` at scan time;
* a repeated scan whose pages were **not** written since that sequence
  number (``range_written_since``) reuses the cached likely-pointer list
  and word count — identical output, none of the work;
* any write to an overlapping page, or any change to the process's
  resolution state (allocations, frees, tag churn, mapping changes — the
  *resolution fingerprint*), falls back to a full scan.  Correctness
  never depends on the cache; it is a pure memoization with a
  conservative validity test.

Both caches here are part of the scan engine, not options: every
``GraphBuilder`` consults its process's ``ScanCache`` (``cache_for``),
and a rolling update threads one ``SharedScanCache`` through its
per-worker builders.

The sequencing lives beside, not inside, the soft-dirty bits: the
update-time dirty filter owns ``clear()``/``_dirty`` and must not be
perturbed by scan bookkeeping (see ``PageTracker.write_seq``).

Accounting note: a cache hit still reports the cached ``words_scanned``,
so the cost model charges identical virtual time and every Table 2/3 and
Figure 3 number is unchanged.  The savings are host wall time only —
which is what ``bench scanperf`` measures.
"""

from __future__ import annotations

import weakref
import zlib
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import MemoryFault
from repro.mcr.tracing.conservative import LikelyPointer


class _CacheEntry:
    """One remembered scan: its result plus everything needed to trust it."""

    __slots__ = ("found", "words_scanned", "tracker", "seq")

    def __init__(self, found: List[LikelyPointer], words_scanned: int, tracker, seq: int) -> None:
        self.found = found
        self.words_scanned = words_scanned
        self.tracker = tracker
        self.seq = seq


def resolution_fingerprint(process) -> Tuple:
    """A cheap digest of everything address resolution depends on.

    If any component changes, a word that previously resolved may now
    miss (or vice versa) even though the scanned bytes are untouched —
    e.g. a freshly malloc'd chunk makes old integer words "resolve".
    The cache treats any fingerprint change as a full invalidation.
    """
    heap = process.heap
    tags = process.tags
    symbols = getattr(process, "symbols", None)
    space = process.space
    return (
        tags.register_count,
        len(tags),
        heap.malloc_count,
        heap.free_count,
        tuple(sorted(heap.reserved_ranges().items())),
        len(symbols) if symbols is not None else 0,
        tuple((m.base, m.size) for m in space.mappings(kind="lib")),
        sum(1 for _ in space.mappings()),
    )


def _note_hit(cache, words_scanned: int, hit_counter: str, words_counter: str) -> None:
    """Hit accounting for either cache (their validity rules differ)."""
    cache.hits += 1
    cache.words_skipped += words_scanned
    collector = obs.ACTIVE
    if collector is not None:
        collector.counters.incr(hit_counter)
        collector.counters.incr(words_counter, words_scanned)


class ScanCache:
    """Per-process memo of conservative ``scan_range`` results."""

    def __init__(self, process) -> None:
        self._process_ref = weakref.ref(process)
        self._entries: Dict[Tuple[int, int], _CacheEntry] = {}
        self._fingerprint: Optional[Tuple] = None
        self.hits = 0
        self.misses = 0
        self.words_skipped = 0

    def begin_round(self) -> None:
        """Start one trace sweep: revalidate against the live process.

        Any resolution-state drift since the previous sweep empties the
        cache (the conservative fallback the design requires).
        """
        process = self._process_ref()
        if process is None:  # pragma: no cover - process died under us
            self._entries.clear()
            return
        fingerprint = resolution_fingerprint(process)
        if fingerprint != self._fingerprint:
            self._entries.clear()
            self._fingerprint = fingerprint

    def lookup(self, start: int, size: int) -> Optional[Tuple[List[LikelyPointer], int]]:
        """The cached (found, words_scanned) if still valid, else None."""
        entry = self._entries.get((start, size))
        if entry is None:
            self.misses += 1
            return None
        process = self._process_ref()
        if process is None:  # pragma: no cover - process died under us
            return None
        mapping = process.space.mapping_at(start)
        if mapping is None or mapping.tracker is not entry.tracker:
            # Mapping replaced since the scan: never trust the entry.
            del self._entries[(start, size)]
            self.misses += 1
            return None
        if entry.tracker.range_written_since(start, size, entry.seq):
            del self._entries[(start, size)]
            self.misses += 1
            return None
        _note_hit(self, entry.words_scanned, "scan.cache_hits", "scan.words_from_cache")
        return entry.found, entry.words_scanned

    def store(self, start: int, size: int, found: List[LikelyPointer], words_scanned: int) -> None:
        process = self._process_ref()
        if process is None:  # pragma: no cover - process died under us
            return
        mapping = process.space.mapping_at(start)
        if mapping is None:
            return
        self._entries[(start, size)] = _CacheEntry(
            found, words_scanned, mapping.tracker, mapping.tracker.write_seq
        )


class SharedScanCache:
    """Cross-process memo of conservative ``scan_range`` results.

    Rolling updates trace workers one batch at a time, but forked workers
    share their startup-time layout: the same read-only pages, the same
    allocator history up to the fork, the same tag registrations.  A scan
    of such a range in worker N+1 is byte-for-byte the scan already done
    in worker N, so the rolling controller threads one ``SharedScanCache``
    through every per-worker ``GraphBuilder``.

    Validity is self-evident from the key: ``(start, size, crc32 of the
    bytes, resolution fingerprint)``.  Conservative scan output is a pure
    function of the scanned bytes and the resolution state, so two
    processes with equal keys get equal results.  A hit still reports the
    cached ``words_scanned`` (identical virtual-time accounting); only
    host wall time is saved.  Whole-tree updates never construct one, so
    their counters stay byte-identical.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple, Tuple[List[LikelyPointer], int]] = {}
        self._fingerprints: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.hits = 0
        self.misses = 0
        self.words_skipped = 0

    def begin_process(self, process) -> None:
        """Cache the per-process fingerprint once per trace, not per range."""
        self._fingerprints[process] = resolution_fingerprint(process)

    def _key(self, process, start: int, size: int) -> Optional[Tuple]:
        try:
            data = process.space.view(start, size)
        except MemoryFault:
            return None
        fingerprint = self._fingerprints.get(process)
        if fingerprint is None:
            fingerprint = resolution_fingerprint(process)
            self._fingerprints[process] = fingerprint
        return (start, size, zlib.crc32(data), fingerprint)

    def lookup(self, process, start: int, size: int) -> Optional[Tuple[List[LikelyPointer], int]]:
        key = self._key(process, start, size)
        if key is None:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        _note_hit(self, entry[1], "scan.shared_hits", "scan.words_from_shared")
        return entry

    def store(self, process, start: int, size: int, found: List[LikelyPointer], words_scanned: int) -> None:
        key = self._key(process, start, size)
        if key is None:
            return
        self._entries[key] = (found, words_scanned)


# One cache per process, lifetime-tied to it (dies with the process).
_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def cache_for(process) -> ScanCache:
    """The process's scan cache, created on first use."""
    cache = _CACHES.get(process)
    if cache is None:
        cache = ScanCache(process)
        _CACHES[process] = cache
    return cache
