"""Property tests for the scan index classifiers and the span writer.

Two equivalences are load-bearing:

* every **scan index class** (numpy when installed, stdlib always) must
  classify windows identically to the reference per-word scanner — same
  likely pointers, same ``words_scanned``, and the same in-bounds
  candidate count, so ``scan.resolve_calls`` accounting is byte-for-byte
  unchanged; and
* the **span-coalescing transfer writer** must leave destination memory
  byte-for-byte identical to the per-word write path, with identical
  dirty-page accounting.

Both are pinned with Hypothesis over randomized memory images, including
the resolver quirks the index snapshot must reproduce (guard gaps between
mappings, nested tag regions).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcr.tracing.conservative import scan_range, scan_range_ref
from repro.mcr.tracing.graph import AddressResolver, live_segments
from repro.mcr.tracing.spans import SpanWriter
from repro.mem import scan_backend
from repro.mem.address_space import AddressSpace
from repro.types.descriptors import INT32, INT64, StructType

from tests.helpers import INDEX_CLASSES, boot_test_program, make_test_program

REGION = 0x40000   # scanned area
TARGETS = 0x80000  # synthetic object segments

HAS_NUMPY = scan_backend.ACTIVE is scan_backend.NumpyScanIndex


def _key(pointers):
    return [(p.slot_address, p.value, p.target_base, p.interior) for p in pointers]


# -- backend-level classification equivalence ---------------------------------

# Random disjoint segments: (start offset, size, align-or-None).  Gaps
# between segments model guard pages / unresolvable holes.
_SEGMENT = st.tuples(
    st.integers(min_value=8, max_value=192),   # gap before this segment
    st.integers(min_value=8, max_value=160),   # segment size
    st.sampled_from([None, 1, 4, 8, 16]),      # tag alignment
)


def _build_segments(specs):
    starts, ends, payloads = [], [], []
    cursor = TARGETS
    for gap, size, align in specs:
        cursor += gap
        starts.append(cursor)
        ends.append(cursor + size)
        payloads.append((cursor, size, align))
        cursor += size
    return starts, ends, payloads


def _classify_ref(words, starts, ends, payloads, lo, hi):
    """The reference classification: one predecessor lookup per word."""
    import bisect

    positions, values, targets, candidates = [], [], [], 0
    for position, value in enumerate(words):
        if value < lo or value >= hi:
            continue
        candidates += 1
        i = bisect.bisect_right(starts, value) - 1
        if i < 0 or value >= ends[i]:
            continue
        base, _size, align = payloads[i]
        if (value - base) % (align or 1):
            continue
        positions.append(position)
        values.append(value)
        targets.append(base)
    return positions, values, targets, candidates


_SEG_WORD = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=TARGETS - 64, max_value=TARGETS + 2048),
)


class TestBackendEquivalence:
    @given(
        specs=st.lists(_SEGMENT, min_size=1, max_size=12),
        words=st.lists(_SEG_WORD, min_size=1, max_size=128),
    )
    @settings(max_examples=80, deadline=None)
    def test_backends_match_reference(self, specs, words):
        starts, ends, payloads = _build_segments(specs)
        window = memoryview(
            b"".join(value.to_bytes(8, "little") for value in words)
        )
        lo, hi = starts[0], ends[-1]
        expected = _classify_ref(words, starts, ends, payloads, lo, hi)
        for cls in INDEX_CLASSES:
            assert cls(starts, ends, payloads).classify(window) == expected, cls.name

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
    @given(
        specs=st.lists(_SEGMENT, min_size=1, max_size=8),
        words=st.lists(_SEG_WORD, min_size=1, max_size=96),
    )
    @settings(max_examples=60, deadline=None)
    def test_numpy_and_stdlib_agree(self, specs, words):
        starts, ends, payloads = _build_segments(specs)
        window = memoryview(
            b"".join(value.to_bytes(8, "little") for value in words)
        )
        a = scan_backend.StdlibScanIndex(starts, ends, payloads)
        b = scan_backend.NumpyScanIndex(starts, ends, payloads)
        assert a.classify(window) == b.classify(window)

    def test_empty_index_classifies_nothing(self):
        window = memoryview((TARGETS).to_bytes(8, "little") * 4)
        for cls in INDEX_CLASSES:
            empty = cls([], [], [])
            assert empty.classify(window) == ([], [], [], 0)
            assert empty.lookup(TARGETS) is None

    def test_backend_selection(self):
        # Chosen from what the interpreter can import, nothing else.
        try:
            import numpy  # noqa: F401
        except ImportError:
            assert scan_backend.ACTIVE is scan_backend.StdlibScanIndex
        else:
            assert scan_backend.ACTIVE is scan_backend.NumpyScanIndex
        assert scan_backend.ACTIVE.name in ("numpy", "stdlib")


# -- indexed scan_range vs reference on a real resolver ------------------------

_WORD = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=2**64 - 1),
)


class TestIndexedScanEquivalence:
    """``scan_range`` through each index class against the per-word
    reference over the cascade resolver of a booted world — including
    nested tag regions (the index must reproduce the cascade's gap quirk,
    not "fix" it) and the guard gap past each mapping's end."""

    def _world_with_tags(self):
        program = make_test_program([])
        kernel, session, proc = boot_test_program(program)
        outer = StructType("outer", [("a", INT64), ("b", INT64)])
        raw = proc.crt.malloc(64)
        proc.tags.register(raw, outer, origin="heap")
        proc.tags.register(raw + 8, INT32, origin="heap")  # nested tag
        proc.crt.malloc(48)
        return proc, raw

    @given(
        offsets=st.lists(st.integers(min_value=-16, max_value=96), min_size=1, max_size=48),
        noise=st.lists(_WORD, max_size=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_indexed_scan_matches_reference(self, offsets, noise):
        proc, raw = self._world_with_tags()
        space = proc.space
        space.map(4096, address=REGION)
        words = [raw + off for off in offsets] + list(noise)
        for index, word in enumerate(words):
            space.write_word(REGION + index * 8, word % 2**64)
        ref = scan_range_ref(
            space, REGION, len(words) * 8, AddressResolver(proc).resolve
        )
        segments = live_segments(proc)
        for cls in INDEX_CLASSES:
            got = scan_range(space, REGION, len(words) * 8, cls(*segments))
            assert _key(got[0]) == _key(ref[0])
            assert got[1] == ref[1]


# -- span-coalesced transfer writes vs per-word writes -------------------------

# A write plan: runs of (gap, chunk sizes).  Gap 0 makes runs adjacent —
# the coalescing case; positive gaps force flushes.
_RUN = st.tuples(
    st.integers(min_value=0, max_value=64),
    st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=8),
)


class TestSpanWriterEquivalence:
    @given(
        runs=st.lists(_RUN, min_size=1, max_size=12),
        payload=st.binary(min_size=1, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_coalesced_bytes_and_faults_identical(self, runs, payload):
        direct = AddressSpace()
        spanned = AddressSpace()
        for space in (direct, spanned):
            space.map(64 * 1024, address=REGION)
            space.clear_soft_dirty()
        writer = SpanWriter(spanned)
        cursor = REGION
        for gap, chunks in runs:
            cursor += gap
            for size in chunks:
                data = (payload * size)[:size]
                direct.write_bytes(cursor, data)
                writer.write_bytes(cursor, data)
                cursor += size
        writer.close()
        assert spanned.read_bytes(REGION, cursor - REGION) == direct.read_bytes(
            REGION, cursor - REGION
        )
        assert spanned.soft_dirty_faults == direct.soft_dirty_faults
        assert spanned.dirty_page_count() == direct.dirty_page_count()
        # Coalescing really happened: emitted spans never exceed absorbed
        # writes, and overwrites are not reordered (checked above by the
        # byte comparison since later writes win in both paths).
        assert writer.spans_emitted <= writer.writes_absorbed

    def test_overlapping_rewrite_preserves_order(self):
        # A non-adjacent write *behind* the pending span must flush first
        # so the destination sees the same final bytes as the direct path.
        direct = AddressSpace()
        spanned = AddressSpace()
        for space in (direct, spanned):
            space.map(4096, address=REGION)
        writer = SpanWriter(spanned)
        for address, data in [
            (REGION, b"aaaa"), (REGION + 4, b"bbbb"), (REGION + 2, b"XY"),
        ]:
            direct.write_bytes(address, data)
            writer.write_bytes(address, data)
        writer.close()
        assert spanned.read_bytes(REGION, 8) == direct.read_bytes(REGION, 8)
        assert spanned.read_bytes(REGION, 8) == b"aaXYbbbb"
