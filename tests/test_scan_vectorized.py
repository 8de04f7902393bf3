"""Property tests for the scan index classifiers and the span writer.

Two equivalences are load-bearing:

* the **scan index** must classify windows identically to the reference
  per-word scanner — same likely pointers, same ``words_scanned``, and
  the same in-bounds candidate count, so ``scan.resolve_calls``
  accounting is byte-for-byte unchanged; and
* the **span-coalescing transfer writer** must leave destination memory
  byte-for-byte identical to the per-word write path, with identical
  dirty-page accounting.

Both are pinned with Hypothesis over randomized memory images, including
the resolver quirks the index snapshot must reproduce (guard gaps between
mappings, nested tag regions).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcr.tracing.conservative import scan_range, scan_range_ref
from repro.mcr.tracing.graph import AddressResolver, live_segments
from repro.mcr.tracing.spans import SpanWriter
from repro.mem.address_space import AddressSpace
from repro.mem.scan_backend import PreparedScanIndex
from repro.types.descriptors import INT32, INT64, StructType

from tests.helpers import ReferenceScanIndex, boot_test_program, make_test_program

REGION = 0x40000   # scanned area
TARGETS = 0x80000  # synthetic object segments


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


def _window(words):
    return memoryview(b"".join(value.to_bytes(8, "little") for value in words))


def _classify_both(specs, words):
    """``classify`` and the per-word reference over one window."""
    starts, ends, payloads = _build_segments(specs)
    window = _window(words)
    return (
        PreparedScanIndex(starts, ends, payloads).classify(window),
        ReferenceScanIndex(starts, ends, payloads).classify(window),
    )


# Any word: zero, anything at all, or in and around the segments.
_SEG_WORD = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=TARGETS - 64, max_value=TARGETS + 2048),
)

# A window as runs of one repeated word: long zero runs (which
# ``classify`` drops before its loop), runs of one value outside every
# segment, and single words in and around the segments between them.
_WINDOW_RUN = st.one_of(
    st.tuples(st.just(0), st.integers(min_value=1, max_value=64)),
    st.tuples(
        st.one_of(
            st.integers(min_value=1, max_value=TARGETS - 1),
            st.integers(min_value=TARGETS + 2**20, max_value=2**64 - 1),
        ),
        st.integers(min_value=1, max_value=16),
    ),
    st.tuples(
        st.integers(min_value=TARGETS - 64, max_value=TARGETS + 4096), st.just(1)
    ),
)


class TestBackendEquivalence:
    @given(
        specs=st.lists(_SEGMENT, min_size=1, max_size=12),
        runs=st.lists(_WINDOW_RUN, min_size=1, max_size=24),
    )
    @settings(max_examples=80, deadline=None)
    def test_backends_match_reference(self, specs, runs):
        words = [value for value, length in runs for _ in range(length)]
        got, expected = _classify_both(specs, words)
        assert got == expected

    @given(
        specs=st.lists(_SEGMENT, min_size=1, max_size=12),
        words=st.lists(_SEG_WORD, min_size=1, max_size=128),
    )
    @settings(max_examples=60, deadline=None)
    def test_free_words_match_reference(self, specs, words):
        got, expected = _classify_both(specs, words)
        assert got == expected

    def test_skipped_zeros_keep_their_positions(self):
        # Pointers after zero runs sit at their index in the whole
        # window, and a window of zeros has no candidates at all.
        specs = [(8, 64, 8)]
        base = TARGETS + 8
        words = [0] * 5 + [base] + [0] * 9 + [base + 16, 0, 7]
        got, expected = _classify_both(specs, words)
        assert got == expected == ([5, 15], [base, base + 16], [base, base], 2)
        assert _classify_both(specs, [0] * 32)[0] == ([], [], [], 0)

    def test_empty_index_classifies_nothing(self):
        window = memoryview((TARGETS).to_bytes(8, "little") * 4)
        empty = PreparedScanIndex([], [], [])
        assert empty.classify(window) == ([], [], [], 0)
        assert empty.lookup(TARGETS) is None


# -- indexed scan_range vs reference on a real resolver ------------------------

_WORD = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=2**64 - 1),
)


class TestIndexedScanEquivalence:
    """``scan_range`` through the scan index against the per-word
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
        got = scan_range(space, REGION, len(words) * 8, PreparedScanIndex(*live_segments(proc)))
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
