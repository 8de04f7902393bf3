"""The update-scoped trace memo: walk each distinct process once, scan
each distinct (bytes, layout) once.

One live update asks for the trace of every old-version process **twice**
— offline analysis derives the immutable set and the relink plan from it,
state transfer pairs and copies from it — and between the two sweeps the
old tree is parked at the barrier, so the second answer is the first.  On
top of that, forked workers and sessions share their layout, their
startup-time pages and their allocator history, so most of them would be
walked exactly as a sibling already was, and much of what one process's
conservative scan reads, a sibling's scan has already classified.
CRIU-style systems exploit this with pre-dumps and page dedup, rr by
recording only the answers to nondeterministic reads; the analogue here
is one ``TraceMemo`` per update, owned by ``LiveUpdateController``
(created with it and swapped for a fresh one when ``run_update`` returns,
so it outlives quiescence retries and rolling batches, dies with the
update and hands nothing from a rolled-back attempt to a retry),
answering two questions — each *exactly*, by a key that holds everything
its value depends on, so nobody has to remember to invalidate:

``trace(process, config, annotations)``
    Three answers, tried in order; ``GraphBuilder.build()`` stays the
    pure, memo-free definition of a trace and is the last of them.

    1. *Stamp: this process has not changed* → the very ``TraceResult``
       it was given before.  The stamp (``trace_stamp``) is every input
       of the walk:

       * what resolves — ``resolution_fingerprint``: tag, allocation and
         free counts (monotonic, so any register / malloc / free moves
         one), reserved superobject spans, symbols, library images;
       * the bytes — per mapping ``(base, size, PageTracker, write_seq,
         graft_epoch)``: every program write advances ``write_seq``,
         every checkpoint graft (``Mapping.load`` / ``replace``, which
         deliberately leave write sequencing alone) advances
         ``graft_epoch``, and a mapping replaced at the same address has
         a new tracker — held as the object itself, never ``id()``, so a
         recycled id cannot alias it;
       * the roots — live thread ids and their stack-overlay addresses;
       * the policy — the three ``MCRConfig`` fields the walk reads and
         the two annotation tables it reads, by value (analysis traces
         under v1's annotations, transfer under v2's).

       A worker that served a request between the sweeps, a rolled-back
       retry, or a v2 that annotates differently therefore misses here.

    2. *Sibling key + transcript: these two processes would be walked
       alike* → a sibling's trace, re-bound.  A walk reads two kinds of
       thing.  Layout, roots and policy — ``sibling_key``, by value:
       tags, chunks, reserved spans, the symbol table, mappings, stack
       roots, the stamp's policy tuple; no counts, which across
       processes do not determine a layout.  And memory, through three
       questions only — one word, one scanned range, one object's
       integer slots scanned — which ``build()`` records with their
       answers, in order, as its *transcript*.  Replaying a transcript
       recorded under an equal key against this process's memory either
       meets an unequal answer (give up: try the next, at most
       ``TRANSCRIPTS_PER_KEY``, then build) or does not, and then, by
       induction over the question sequence, the walk would have gone
       exactly alike: before its first question a walk is a function of
       the key alone, and between two questions it is a function of the
       key and the answers so far.  The sibling gets a copy of the
       recorded trace taken before anyone's ``apply_invariants`` touched
       it: its own ``TraceResult``, a fresh ``ObjectRecord`` per object
       with ``tag`` / ``type`` from its *own* tag store, the read-only
       pointer slots shared.  Equal answers, not equal bytes: forked
       sessions differ in counters and buffers the scanner classifies as
       non-pointers, and still share.  A scanned range is compared by
       its bytes first (equal bytes, equal answer) and only then through
       ``scan`` below, answers compared by value.  A walk that met a
       range no single mapping backs is not recorded.

    3. Else ``GraphBuilder.build()``, whose transcript is recorded.

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

Accounting note: a reused or shared trace and a reused scan carry their
``words_scanned``, objects and likely-pointer lists, so the cost model
charges identical virtual time and every Table 2/3 and Figure 3 number is
unchanged.  Every word a trace scanned is published exactly once, as
``scan.words`` where it was classified (in a build, or in a replay whose
bytes differed) and as ``scan.words_from_cache`` where its answer was
already known; the words a replay asked about before it gave up are
published too and also summed in ``scan.words_in_failed_replays``, so
``scan.words + scan.words_from_cache == Σ trace.words_scanned +
scan.words_in_failed_replays``.  The savings are host wall time only —
``bench scanperf`` and ``perfbench`` measure them.  Callers that trace
once (diagnostics, ``bench table2``, the ablations) call ``GraphBuilder``
with no memo.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import obs
from repro.errors import MemoryFault
from repro.mcr.config import MCRConfig
from repro.mcr.tracing import conservative
from repro.mcr.tracing.conservative import LikelyPointer
from repro.mcr.tracing.graph import (
    ASKED_RANGE,
    ASKED_WORD,
    GraphBuilder,
    TraceResult,
    stack_roots,
)
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


def _policy(config: MCRConfig, annotations) -> Tuple:
    """The config fields and annotation tables the walk reads, by value."""
    return (
        config.transfer_shared_libs,
        config.scan_opaque_int64,
        config.interior_only_nonupdatable,
        None
        if annotations is None
        else (
            tuple(sorted(annotations.encoded_pointers.items())),
            frozenset(annotations.opaque_overrides),
        ),
    )


def trace_stamp(process, config: MCRConfig, annotations) -> Tuple:
    """Everything ``GraphBuilder.build()`` reads, cheaply comparable."""
    return (
        resolution_fingerprint(process),
        tuple(
            (m.base, m.size, m.tracker, m.tracker.write_seq, m.tracker.graft_epoch)
            for m in process.space.mappings()
        ),
        stack_roots(process),
        _policy(config, annotations),
    )


def sibling_key(process, config: MCRConfig, annotations) -> Tuple:
    """Everything the walk reads that is not an answer from memory, by value.

    Two processes with equal keys resolve every address alike, start from
    the same roots and visit under the same policy, so their walks can
    differ only through what memory answers (``GraphBuilder.transcript``).
    Counts are not in it: across processes they do not determine a layout.
    """
    heap = process.heap
    symbols = getattr(process, "symbols", None)
    return (
        tuple((t.address, t.type, t.site, t.name) for t in process.tags.tags()),
        tuple((c.user_base, c.user_size, c.startup, c.site_id) for c in heap.chunks()),
        tuple(sorted(heap.reserved_ranges().items())),
        # Forked siblings share the loader's table; a table is only added to.
        (symbols, len(symbols) if symbols is not None else 0),
        tuple((m.base, m.size, m.kind) for m in process.space.mappings()),
        tuple(addresses for _tid, addresses in stack_roots(process)),
        _policy(config, annotations),
    )


# Distinct transcripts kept per sibling key: a process that matches none
# of them pays at most this many failed replays (each stops at its first
# unequal answer) before it is walked, however many siblings there are.
TRANSCRIPTS_PER_KEY = 4


class _Transcript(NamedTuple):
    """One recorded walk: its questions, its scan index, its trace."""

    # ``GraphBuilder.transcript`` rows plus, for a range question, the
    # bytes that were scanned (``_with_scanned_bytes``).
    questions: List[Tuple]
    # The witness's index: what a replay resolves under.
    index: PreparedScanIndex
    # A copy taken before the caller's ``apply_invariants`` could touch
    # the records; every sharer gets its own copy of it.
    pristine: TraceResult


def _with_scanned_bytes(process, transcript: List[Tuple]) -> Optional[List[Tuple]]:
    """Each range question with the bytes the scan read: a sibling holding
    the same bytes has the same answer without asking.

    ``None`` when a range is not one mapping's bytes — the scanner owns
    those per-word fault semantics, so such a walk is not shared.
    """
    read_bytes = process.space.read_bytes
    try:
        return [
            (kind, address, extent, answer,
             read_bytes(address, extent) if kind is ASKED_RANGE else None)
            for kind, address, extent, answer in transcript
        ]
    except MemoryFault:
        return None


ScanAnswer = Tuple[List[LikelyPointer], int]  # likely pointers found, words scanned


def _same_answer(got: ScanAnswer, want: ScanAnswer) -> bool:
    """Two scan answers, compared by value."""
    if got[1] != want[1] or len(got[0]) != len(want[0]):
        return False
    return all(
        a.slot_address == b.slot_address
        and a.value == b.value
        and a.target_base == b.target_base
        and a.interior == b.interior
        for a, b in zip(got[0], want[0])
    )


class TraceMemo:
    """One update's trace and conservative-scan memoization."""

    def __init__(self) -> None:
        # Keyed by the process object: the memo dies with the update, so
        # it never outlives a trace ``TransferReport.trace_results`` would
        # not have kept alive anyway, and ``Process`` never points back.
        self._traces: Dict[object, Tuple[Tuple, TraceResult]] = {}
        self._transcripts: Dict[Tuple, List[_Transcript]] = {}
        self._scans: Dict[Tuple, ScanAnswer] = {}
        # State transfer's pairing plans, by ``TraceResult.shape``: they
        # derive from the traces shared here, so they are kept beside them
        # — rolling batches reuse them, and they die with the update.
        # ``transfer.py`` owns what is in the lists.
        self.plans: Dict[object, List] = {}
        self.traces_built = 0
        self.traces_reused = 0
        self.traces_shared = 0
        self.replays_failed = 0
        self.scan_hits = 0

    def trace(
        self, process, config: Optional[MCRConfig] = None, annotations=None
    ) -> TraceResult:
        """The process's trace: reused while its stamp holds, else a
        sibling's walk it answers alike, else built."""
        builder = GraphBuilder(process, config, annotations=annotations, memo=self)
        stamp = trace_stamp(process, builder.config, builder.annotations)
        entry = self._traces.get(process)
        if entry is not None and entry[0] == stamp:
            self.traces_reused += 1
            obs.incr("trace.memo_hits")
            return entry[1]
        key = sibling_key(process, builder.config, builder.annotations)
        recorded = self._transcripts.setdefault(key, [])
        for transcript in recorded:
            if self._answers_alike(process, transcript):
                result = transcript.pristine.rebound(process)
                self.traces_shared += 1
                obs.incr("trace.memo_shared")
                break
        else:
            result = builder.build()
            self.traces_built += 1
            obs.incr("trace.memo_misses")
            if len(recorded) < TRANSCRIPTS_PER_KEY:
                questions = _with_scanned_bytes(process, builder.transcript)
                if questions is not None:
                    recorded.append(
                        _Transcript(questions, builder.index, result.rebound(process))
                    )
        self._traces[process] = (stamp, result)
        return result

    def _answers_alike(self, process, transcript: _Transcript) -> bool:
        """Does ``process``'s memory answer every recorded question alike?

        Asked in the recorded order, under the witness's scan index (an
        equal sibling key means an equal index); stops at the first
        unequal answer.  Billing: every scanned word is counted once, as
        ``scan.words`` if it was classified here and as
        ``scan.words_from_cache`` if its answer was already known.
        """
        space = process.space
        read_word, read_bytes = space.read_word, space.read_bytes
        index = transcript.index
        alike = True
        same_bytes = words_same_bytes = words_asked = 0
        for kind, address, extent, answer, scanned in transcript.questions:
            if kind is ASKED_WORD:
                if read_word(address) != answer:
                    alike = False
                    break
            elif kind is ASKED_RANGE and read_bytes(address, extent) == scanned:
                same_bytes += 1
                words_same_bytes += answer[1]
            else:
                if kind is ASKED_RANGE:
                    got = self.scan(process, index, address, extent)
                else:
                    got = conservative.scan_words(space, extent, address, index)
                words_asked += got[1]
                if got is not answer and not _same_answer(got, answer):
                    alike = False
                    break
        self.scan_hits += same_bytes
        obs.incr("scan.cache_hits", same_bytes)
        obs.incr("scan.words_from_cache", words_same_bytes)
        if not alike:
            self.replays_failed += 1
            obs.incr("trace.memo_replays_failed")
            obs.incr("scan.words_in_failed_replays", words_same_bytes + words_asked)
        return alike

    def scan(self, process, index: PreparedScanIndex, start: int, size: int) -> ScanAnswer:
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
