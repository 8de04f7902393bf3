"""Equivalence tests for the scan engine against its oracles.

The window scanners (``scan_range``/``scan_words`` through a scan index),
the index's scalar ``lookup``, and the update's scan memo must each be
observationally identical to the per-word reference scanners over the
cascade resolver (identical ``LikelyPointer`` lists, identical
``words_scanned``, identical resolve results).  These tests pin that
equivalence down with randomized memory images and direct checks of what
the memo's key does and does not share.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryFault
from repro.mcr.config import MCRConfig
from repro.mcr.tracing import conservative
from repro.mcr.tracing.conservative import scan_range, scan_range_ref, scan_words
from repro.mcr.tracing.graph import AddressResolver, GraphBuilder, snapshot_index
from repro.mcr.tracing.incremental import TraceMemo, resolution_fingerprint
from repro.mem.address_space import AddressSpace
from repro.runtime.program import GlobalVar
from repro.types.descriptors import INT32, INT64, PointerType, StructType

from tests.helpers import (
    CallCounter,
    boot_test_program,
    make_test_program,
    scan_index_of,
    unmap,
)
from tests.scan_oracles import scan_words_ref

NODE = StructType("node", [("value", INT32), ("next", PointerType(None, name="node*"))])

REGION = 0x40000  # the scanned area
TARGETS = 0x80000  # where the synthetic live objects sit


def _booted_world(globals_=(), types=None):
    program = make_test_program(list(globals_), types=types)
    return boot_test_program(program)


def _key(pointers):
    return [(p.slot_address, p.value, p.target_base, p.interior) for p in pointers]


# -- randomized window-vs-reference equivalence --------------------------------

# Objects the synthetic resolver knows: (base, size, align-or-None).
# Aligns of 1/4/8/16 exercise the tag-alignment rejection both ways.
_OBJECTS = [
    (TARGETS + 0x000, 48, None),
    (TARGETS + 0x100, 64, 8),
    (TARGETS + 0x200, 24, 4),
    (TARGETS + 0x300, 128, 16),
]

# The same objects as a scan index.
_INDEX = scan_index_of(_OBJECTS)


def _resolve(value):
    for base, size, align in _OBJECTS:
        if base <= value < base + size:
            return (base, size, align)
    return None


# A word mix biased toward interesting cases: zeros, wild integers, and
# values in/near the object range (bases, interior, just-past-the-end).
_WORD = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=TARGETS - 16, max_value=TARGETS + 0x400),
    st.sampled_from([b for b, _, _ in _OBJECTS]),
)


class TestBulkEquivalence:
    @given(
        words=st.lists(_WORD, min_size=1, max_size=96),
        start_offset=st.integers(min_value=0, max_value=15),
        tail=st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=60, deadline=None)
    def test_scan_range_matches_reference(self, words, start_offset, tail):
        space = AddressSpace()
        space.map(8192, address=REGION)
        for index, word in enumerate(words):
            space.write_word(REGION + index * 8, word)
        start = REGION + start_offset  # may be word-unaligned
        size = len(words) * 8 - start_offset + tail
        ref = scan_range_ref(space, start, size, _resolve)
        got = scan_range(space, start, size, _INDEX)
        assert _key(got[0]) == _key(ref[0]) and got[1] == ref[1]

    @given(
        words=st.lists(_WORD, min_size=1, max_size=64),
        offsets=st.lists(st.integers(min_value=0, max_value=1016), max_size=48),
    )
    @settings(max_examples=60, deadline=None)
    def test_scan_words_matches_reference(self, words, offsets):
        space = AddressSpace()
        space.map(8192, address=REGION)
        for index, word in enumerate(words):
            space.write_word(REGION + index * 8, word)
        ref = scan_words_ref(space, offsets, REGION, _resolve)
        got = scan_words(space, offsets, REGION, _INDEX)
        assert _key(got[0]) == _key(ref[0]) and got[1] == ref[1]

    def test_cross_mapping_scan_falls_back(self):
        # Two adjacent mappings: no single view covers the range, so the
        # window scanner must delegate to the reference scanner and still
        # produce its exact result.
        space = AddressSpace()
        space.map(4096, address=REGION)
        space.map(4096, address=REGION + 4096)
        space.write_word(REGION + 4096 - 8, TARGETS + 8)
        space.write_word(REGION + 4096, TARGETS + 0x108)
        ref = scan_range_ref(space, REGION + 4064, 64, _resolve)
        got = scan_range(space, REGION + 4064, 64, _INDEX)
        assert _key(got[0]) == _key(ref[0]) and got[1] == ref[1]
        assert len(got[0]) == 2

    def test_unmapped_tail_faults_like_reference(self):
        # A range running off the end of mapped memory: both scanners
        # scan the mapped words, then take the same fault.
        space = AddressSpace()
        space.map(4096, address=REGION)
        with pytest.raises(MemoryFault) as ref_fault:
            scan_range_ref(space, REGION + 4064, 64, _resolve)
        with pytest.raises(MemoryFault) as fault:
            scan_range(space, REGION + 4064, 64, _INDEX)
        assert fault.value.address == ref_fault.value.address


# -- index lookup vs resolution cascade ---------------------------------------


class TestIntervalIndex:
    def test_indexed_resolution_matches_cascade(self):
        kernel, session, proc = _booted_world(
            [GlobalVar("head", PointerType(NODE, name="node*"))], types={"node": NODE}
        )
        crt = proc.crt
        thread = proc.threads[1]
        crt.malloc_typed(thread, NODE)
        raw = crt.malloc(80)
        reserved = proc.heap.base + 4096
        proc.heap.reserve_range(reserved, 1024)
        resolver = AddressResolver(proc)
        probes = list(range(proc.heap.base - 64, proc.heap.base + 8192, 4))
        for mapping in proc.space.mappings():
            probes.extend(range(mapping.base, min(mapping.base + 512, mapping.end), 8))
            probes.append(mapping.end - 8)
            probes.append(mapping.end)  # guard gap
        cascade = [resolver.resolve(address) for address in probes]
        index = snapshot_index(proc)
        assert [index.lookup(address) for address in probes] == cascade
        assert any(r is not None for r in cascade)  # sweep hit live objects

    def test_nested_tag_gap_semantics_preserved(self):
        # The cascade checks only the predecessor-by-start tag: an outer
        # tag does NOT cover addresses past a nested inner tag's end (the
        # next level resolves them instead).  The index must reproduce
        # this quirk, not "fix" it.
        kernel, session, proc = _booted_world([], types={"node": NODE})
        raw = proc.crt.malloc(64)
        outer = StructType("outer", [("a", INT64), ("b", INT64)])
        proc.tags.register(raw, outer, origin="heap")
        proc.tags.register(raw + 8, INT32, origin="heap")
        resolver = AddressResolver(proc)
        probes = [raw, raw + 4, raw + 8, raw + 11, raw + 13, raw + 24, raw + 63]
        cascade = [resolver.resolve(address) for address in probes]
        index = snapshot_index(proc)
        assert [index.lookup(address) for address in probes] == cascade
        # Past the inner tag's end the tags level misses and the heap
        # chunk answers: base pointer resolution, no tag.
        base, _size, _align, tag = index.lookup(raw + 13)
        assert base == raw and tag is None

    def test_scan_bounds_cover_all_resolvables(self):
        kernel, session, proc = _booted_world([], types={"node": NODE})
        proc.crt.malloc(48)
        resolver = AddressResolver(proc)
        index = snapshot_index(proc)
        assert index.lo >= 1  # a zero word is never a candidate
        for probe in range(proc.heap.base, proc.heap.base + 4096, 8):
            if resolver.resolve(probe) is not None:
                assert index.lo <= probe < index.hi


# -- the conservative-scan memo -------------------------------------------------


class TestScanMemo:
    """``TraceMemo.scan``: content- and layout-addressed, so validity is
    the key itself — there is nothing to invalidate and nothing to forget."""

    def _scanned_world(self):
        kernel, session, proc = _booted_world([])
        raw = proc.crt.malloc(64)
        proc.space.write_word(raw, raw + 16)  # a real likely pointer
        return proc, raw

    def _scan(self, memo, proc, start, size, monkeypatch):
        """One ``memo.scan``; returns (result, scanner calls it cost)."""
        with monkeypatch.context() as patched:
            scans = CallCounter(patched, conservative, "scan_range")
            result = memo.scan(proc, snapshot_index(proc), start, size)
        return result, scans.calls

    def test_miss_then_hit_on_unchanged_bytes_and_layout(self, monkeypatch):
        proc, raw = self._scanned_world()
        memo = TraceMemo()
        start, size = proc.heap.base, 512
        ref = scan_range_ref(proc.space, start, size, AddressResolver(proc).resolve)
        first, cost = self._scan(memo, proc, start, size, monkeypatch)
        assert cost == 1
        assert _key(first[0]) == _key(ref[0]) and first[1] == ref[1]
        assert (raw, raw + 16, raw, True) in _key(first[0])
        # A second index built from the unchanged process: equal layout
        # digest, equal bytes -> the very same result object, no scan.
        again, cost = self._scan(memo, proc, start, size, monkeypatch)
        assert cost == 0 and again is first
        assert memo.scan_hits == 1

    def test_overlapping_write_misses(self, monkeypatch):
        proc, raw = self._scanned_world()
        memo = TraceMemo()
        start, size = proc.heap.base, 512
        first, _ = self._scan(memo, proc, start, size, monkeypatch)
        proc.space.write_word(raw + 8, raw + 24)
        second, cost = self._scan(memo, proc, start, size, monkeypatch)
        assert cost == 1 and len(second[0]) == len(first[0]) + 1
        # Writing the old bytes back is a hit again: the key is the content.
        proc.space.write_word(raw + 8, 0)
        third, cost = self._scan(memo, proc, start, size, monkeypatch)
        assert cost == 0 and third is first

    def test_write_elsewhere_keeps_entry(self, monkeypatch):
        proc, raw = self._scanned_world()
        memo = TraceMemo()
        start, size = proc.heap.base, 512
        first, _ = self._scan(memo, proc, start, size, monkeypatch)
        # A write several pages away must not cost this range a scan.
        proc.space.write_word(start + 16 * 4096, 7)
        again, cost = self._scan(memo, proc, start, size, monkeypatch)
        assert cost == 0 and again is first

    def test_allocation_misses(self, monkeypatch):
        proc, raw = self._scanned_world()
        memo = TraceMemo()
        # A word aimed at free heap space, right where the next big chunk
        # will land: it resolves only once that chunk exists.
        target = raw + proc.heap.find_chunk(raw).total_size
        proc.space.write_word(raw + 8, target)
        first, _ = self._scan(memo, proc, raw, 64, monkeypatch)
        assert [p.value for p in first[0]] == [raw + 16]
        assert proc.crt.malloc(3 * 4096) == target
        # Same bytes, new layout: the old entry must not answer.
        second, cost = self._scan(memo, proc, raw, 64, monkeypatch)
        assert cost == 1
        assert [p.value for p in second[0]] == [raw + 16, target]

    def test_replaced_mapping_misses_unless_bytes_match(self, monkeypatch):
        proc, raw = self._scanned_world()
        memo = TraceMemo()
        area = proc.space.map(4096, name="scratch", kind="mmap")
        proc.space.write_word(area.base, raw)
        first, _ = self._scan(memo, proc, area.base, 64, monkeypatch)
        assert len(first[0]) == 1
        unmap(proc.space, area.base)
        proc.space.map(4096, address=area.base, name="scratch", kind="mmap")
        second, cost = self._scan(memo, proc, area.base, 64, monkeypatch)
        assert cost == 1 and second[0] == []  # the fresh mapping is all zero

    def test_range_across_mappings_is_scanned_not_memoized(self, monkeypatch):
        proc, raw = self._scanned_world()
        memo = TraceMemo()
        a = proc.space.map(4096, address=0x6000_0000, name="a", kind="mmap")
        proc.space.map(4096, address=a.end, name="b", kind="mmap")
        proc.space.write_word(a.end - 8, raw)
        proc.space.write_word(a.end, raw + 8)
        ref = scan_range_ref(proc.space, a.end - 32, 64, AddressResolver(proc).resolve)
        for _ in range(2):
            got, cost = self._scan(memo, proc, a.end - 32, 64, monkeypatch)
            assert cost == 1 and _key(got[0]) == _key(ref[0]) and got[1] == ref[1]
        assert memo.scan_hits == 0

    def test_layout_digest_follows_the_layout(self):
        proc, raw = self._scanned_world()
        digest = snapshot_index(proc).layout_digest()
        assert snapshot_index(proc).layout_digest() == digest
        proc.crt.malloc(32)
        assert snapshot_index(proc).layout_digest() != digest

    def test_fingerprint_tracks_tags_and_mappings(self):
        proc, raw = self._scanned_world()
        before = resolution_fingerprint(proc)
        proc.tags.register(raw, INT64, origin="heap")
        after_tag = resolution_fingerprint(proc)
        assert after_tag != before
        proc.space.map(4096, name="new", kind="mmap")
        assert resolution_fingerprint(proc) != after_tag


# -- whole-trace equivalence ---------------------------------------------------


class TestGraphBuilderModes:
    def test_fast_and_slow_traces_identical(self, monkeypatch):
        kernel, session, proc = _booted_world(
            [
                GlobalVar("head", PointerType(NODE, name="node*")),
                GlobalVar("blob", PointerType(None, name="void*")),
            ],
            types={"node": NODE},
        )
        crt = proc.crt
        thread = proc.threads[1]
        n1 = crt.malloc_typed(thread, NODE)
        n2 = crt.malloc_typed(thread, NODE)
        crt.set(n1, NODE, "next", n2)
        crt.gset("head", n1)
        raw = crt.malloc(64)
        crt.gset("blob", raw)  # reachable, untagged: scanned conservatively
        proc.space.write_word(raw + 8, n2)  # conservative edge

        # The oracle: the same walk with both scanners swapped for the
        # per-word reference over the cascade resolver (and no memo, so
        # nothing the engine computed can feed it).
        resolve = AddressResolver(proc).resolve
        with monkeypatch.context() as patched:
            patched.setattr(
                conservative, "scan_range",
                lambda space, start, size, index: scan_range_ref(space, start, size, resolve),
            )
            patched.setattr(
                conservative, "scan_words",
                lambda space, offsets, base, index: scan_words_ref(space, offsets, base, resolve),
            )
            oracle = GraphBuilder(proc).build()
        plain = GraphBuilder(proc).build()
        memo = TraceMemo()
        first = memo.trace(proc)
        # A second sweep over the unchanged process: the whole trace is a
        # hit; a second *builder* through the same memo: every scan is.
        assert memo.trace(proc) is first
        hits = memo.scan_hits
        rescanned = GraphBuilder(proc, memo=memo).build()
        assert memo.scan_hits > hits

        for trace in (plain, first, rescanned):
            assert set(trace.objects) == set(oracle.objects)
            assert trace.words_scanned == oracle.words_scanned
            assert _key(trace.likely_pointers) == _key(oracle.likely_pointers)
            assert len(trace.precise_pointers) == len(oracle.precise_pointers)
        assert (raw + 8, n2, n2, False) in _key(first.likely_pointers)


# -- no selectors, and the bench that compares engine and oracle ----------------


def test_scan_path_knobs_are_gone():
    for knob in ("fast_scan", "incremental_scan"):
        with pytest.raises(TypeError):
            MCRConfig(**{knob: False})


def test_scanperf_micro_engine_matches_reference():
    from repro.bench.scanperf import run_scan_micro

    micro = run_scan_micro("httpd", repeats=1)
    assert micro["identical"] is True
    assert micro["backend"] == "stdlib"
    assert micro["words"] > 0 and micro["likely_pointers"] > 0
    # The index bounds reject words the reference still has to resolve.
    assert micro["likely_pointers"] <= micro["resolve_calls"] <= micro["resolve_calls_ref"]
