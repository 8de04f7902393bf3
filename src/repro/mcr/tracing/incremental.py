"""The update-scoped trace memo: trace each quiesced process once, scan
each distinct (bytes, layout) once.

One live update asks for the trace of every old-version process **twice**
— offline analysis derives the immutable set and the relink plan from it,
state transfer pairs and copies from it — and between the two sweeps the
old tree is parked at the barrier, so the second answer is the first.  On
top of that, forked workers and sessions share their startup-time pages
and allocator history, so much of what one process's conservative scan
reads, a sibling's scan has already classified.  CRIU-style systems
exploit both with pre-dumps and page dedup; the analogue here is one
``TraceMemo`` per update, owned by ``LiveUpdateController`` (created with
it and swapped for a fresh one when ``run_update`` returns, so it
outlives quiescence retries and rolling batches, dies with the update
and hands nothing from a rolled-back attempt to a retry), answering two
questions — each *exactly*, by a key that holds everything its value
depends on, so nobody has to remember to invalidate:

``trace(process, config, annotations)``
    The memoized ``TraceResult`` when the process's *trace stamp* is
    unchanged, else a fresh ``GraphBuilder.build()`` — which stays the
    pure, memo-free definition of a trace.  The stamp (``trace_stamp``)
    is every input of the walk:

    * what resolves — ``resolution_fingerprint``: tag, allocation and
      free counts (monotonic, so any register / malloc / free moves
      one), reserved superobject spans, symbols, library images;
    * the bytes — per mapping ``(base, size, PageTracker, write_seq,
      graft_epoch)``: every program write advances ``write_seq``, every
      checkpoint graft (``Mapping.load`` / ``replace``, which deliberately
      leave write sequencing alone) advances ``graft_epoch``, and a
      mapping replaced at the same address has a new tracker — held as
      the object itself, never ``id()``, so a recycled id cannot alias it;
    * the roots — live thread ids and their stack-overlay addresses;
    * the policy — the three ``MCRConfig`` fields the walk reads and the
      two annotation tables it reads, by value (analysis traces under
      v1's annotations, transfer under v2's).

    A worker that served a request between the sweeps, a rolled-back
    retry, or a v2 that annotates differently therefore re-traces.

``scan(process, index, start, size)``
    The one conservative-scan memo, for both sweeps and both update
    modes, keyed by ``(start, size, digest of the window bytes, digest of
    the scan index's segment arrays)``.  ``scan_range`` output is a pure
    function of exactly those: likely pointers carry absolute slot
    addresses (``start``), the word count follows from ``size``, and
    ``classify`` reads nothing but the window and the index's
    ``starts`` / ``ends`` / ``bases`` / ``aligns``.  Digests are 128-bit
    BLAKE2b, so equal keys mean equal inputs; a count-based layout key
    would not (two forked workers with equal malloc/free counts but
    different chunk sizes resolve the same word differently).

Accounting note: a reused trace or scan carries its ``words_scanned``,
objects and likely-pointer lists, so the cost model charges identical
virtual time and every Table 2/3 and Figure 3 number is unchanged.  The
savings are host wall time only — ``bench scanperf`` and ``perfbench``
measure them.  Callers that trace once (diagnostics, ``bench table2``,
the ablations) call ``GraphBuilder`` with no memo.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import MemoryFault
from repro.mcr.config import MCRConfig
from repro.mcr.tracing import conservative
from repro.mcr.tracing.conservative import LikelyPointer
from repro.mcr.tracing.graph import GraphBuilder, TraceResult
from repro.mem.scan_backend import PreparedScanIndex


def resolution_fingerprint(process) -> Tuple:
    """A cheap digest of everything address resolution depends on.

    If any component changes, a word that previously resolved may now
    miss (or vice versa) even though the scanned bytes are untouched —
    e.g. a freshly malloc'd chunk makes old integer words "resolve".
    The counts are monotonic per process, so within one process's history
    equal fingerprints mean nothing was registered, allocated or freed;
    across processes they do not (see ``TraceMemo.scan``).
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


def trace_stamp(process, config: MCRConfig, annotations) -> Tuple:
    """Everything ``GraphBuilder.build()`` reads, cheaply comparable."""
    crt = getattr(process, "crt", None)
    stacks = crt._stacks if crt is not None else {}
    return (
        resolution_fingerprint(process),
        tuple(
            (m.base, m.size, m.tracker, m.tracker.write_seq, m.tracker.graft_epoch)
            for m in process.space.mappings()
        ),
        tuple(
            (thread.tid, tuple(address for _name, address, _type in area.overlay))
            for thread in process.live_threads()
            if (area := stacks.get(thread.tid)) is not None
        ),
        (
            config.transfer_shared_libs,
            config.scan_opaque_int64,
            config.interior_only_nonupdatable,
        ),
        None
        if annotations is None
        else (
            tuple(sorted(annotations.encoded_pointers.items())),
            frozenset(annotations.opaque_overrides),
        ),
    )


class TraceMemo:
    """One update's trace and conservative-scan memoization."""

    def __init__(self) -> None:
        # Keyed by the process object: the memo dies with the update, so
        # it never outlives a trace ``TransferReport.trace_results`` would
        # not have kept alive anyway, and ``Process`` never points back.
        self._traces: Dict[object, Tuple[Tuple, TraceResult]] = {}
        self._scans: Dict[Tuple, Tuple[List[LikelyPointer], int]] = {}
        self.traces_built = 0
        self.traces_reused = 0
        self.scan_hits = 0

    def trace(
        self, process, config: Optional[MCRConfig] = None, annotations=None
    ) -> TraceResult:
        """The process's trace: reused while its stamp holds, else built."""
        builder = GraphBuilder(process, config, annotations=annotations, memo=self)
        stamp = trace_stamp(process, builder.config, builder.annotations)
        entry = self._traces.get(process)
        if entry is not None and entry[0] == stamp:
            self.traces_reused += 1
            obs.incr("trace.memo_hits")
            return entry[1]
        result = builder.build()
        self._traces[process] = (stamp, result)
        self.traces_built += 1
        obs.incr("trace.memo_misses")
        return result

    def scan(
        self, process, index: PreparedScanIndex, start: int, size: int
    ) -> Tuple[List[LikelyPointer], int]:
        """``conservative.scan_range`` of the window, classified at most once."""
        space = process.space
        try:
            window = space.view(start, size)
        except MemoryFault:
            # Not one mapping's bytes: there is no window to address the
            # result by, and the scanner owns the per-word fault semantics.
            return conservative.scan_range(space, start, size, index)
        key = (start, size, blake2b(window, digest_size=16).digest(), index.layout_digest())
        hit = self._scans.get(key)
        if hit is None:
            hit = self._scans[key] = conservative.scan_range(space, start, size, index)
        else:
            self.scan_hits += 1
            collector = obs.ACTIVE
            if collector is not None:
                collector.counters.incr("scan.cache_hits")
                collector.counters.incr("scan.words_from_cache", hit[1])
        return hit
