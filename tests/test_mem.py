"""Tests for the memory substrate: pages, address spaces, allocators, tags."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocatorError, MemoryFault
from repro.mem.address_space import AddressSpace, HEAP_BASE
from repro.mem.pages import PAGE_SIZE, PageTracker
from repro.mem.ptmalloc import HEADER_SIZE, PtMallocHeap
from repro.mem.regions import NestedPool, RegionAllocator, SlabAllocator
from repro.mem.tags import ORIGIN_HEAP, ORIGIN_STATIC, TagStore
from repro.types.descriptors import INT32, StructType
from tests.dirty_oracles import is_dirty, range_dirty, space_range_dirty


class TestPageTracker:
    def test_everything_dirty_before_first_clear(self):
        tracker = PageTracker(0, 4 * PAGE_SIZE)
        assert is_dirty(tracker, 0)
        assert tracker.dirty_page_count() == 4

    def test_clear_then_clean(self):
        tracker = PageTracker(0, 4 * PAGE_SIZE)
        tracker.clear()
        assert not is_dirty(tracker, 0)
        assert tracker.dirty_page_count() == 0

    def test_write_dirties_pages(self):
        tracker = PageTracker(0, 4 * PAGE_SIZE)
        tracker.clear()
        faults = tracker.note_write(PAGE_SIZE - 2, 4)  # straddles two pages
        assert faults == 2
        assert is_dirty(tracker, 0) and is_dirty(tracker, PAGE_SIZE)
        assert not is_dirty(tracker, 2 * PAGE_SIZE)

    def test_second_write_no_fault(self):
        tracker = PageTracker(0, PAGE_SIZE)
        tracker.clear()
        assert tracker.note_write(0, 8) == 1
        assert tracker.note_write(8, 8) == 0  # page already dirty

    def test_range_dirty(self):
        tracker = PageTracker(0, 4 * PAGE_SIZE)
        tracker.clear()
        tracker.note_write(2 * PAGE_SIZE + 100, 1)
        assert range_dirty(tracker, 2 * PAGE_SIZE, 10)
        assert not range_dirty(tracker, 0, PAGE_SIZE)
        # Multi-page ranges: any overlapping dirty page counts, a byte
        # short of it does not, and a zero-size query asks about one page.
        assert range_dirty(tracker, 0, 2 * PAGE_SIZE + 1)
        assert not range_dirty(tracker, 0, 2 * PAGE_SIZE)
        assert range_dirty(tracker, PAGE_SIZE + 1, 2 * PAGE_SIZE)
        assert not range_dirty(tracker, 3 * PAGE_SIZE, PAGE_SIZE)
        assert range_dirty(tracker, 2 * PAGE_SIZE, 0)
        assert range_dirty(PageTracker(0, 4 * PAGE_SIZE), 0, 1)  # never cleared

    def test_clone_before_first_clear_stays_all_dirty(self):
        tracker = PageTracker(0, 2 * PAGE_SIZE)
        twin = tracker.clone()
        # Never-cleared semantics must survive fork: every page dirty.
        assert not twin._cleared_once
        assert twin.dirty_page_count() == 2
        assert is_dirty(twin, PAGE_SIZE)

    def test_clone_preserves_soft_dirty_state(self):
        tracker = PageTracker(0, 4 * PAGE_SIZE)
        tracker.note_write(3 * PAGE_SIZE, 8)  # resident before clear
        tracker.clear()
        tracker.note_write(PAGE_SIZE, 8)
        twin = tracker.clone()
        assert twin._cleared_once
        assert twin._dirty == {1}
        assert twin.ever_written == {1, 3}
        assert twin.fault_count == tracker.fault_count
        assert is_dirty(twin, PAGE_SIZE) and not is_dirty(twin, 0)

    def test_clone_is_independent(self):
        tracker = PageTracker(0, 2 * PAGE_SIZE)
        tracker.clear()
        twin = tracker.clone()
        twin.note_write(0, 8)
        assert is_dirty(twin, 0)
        assert not is_dirty(tracker, 0)
        tracker.note_write(PAGE_SIZE, 8)
        assert not is_dirty(twin, PAGE_SIZE)

    def test_pages_written_since(self):
        tracker = PageTracker(0, 4 * PAGE_SIZE)
        tracker.note_write(0, 8)
        seq = tracker.write_seq
        assert list(tracker.pages_written_since(seq)) == []
        tracker.note_write(2 * PAGE_SIZE, 8)
        assert list(tracker.pages_written_since(seq)) == [2 * PAGE_SIZE]
        assert list(tracker.pages_written_since(0)) == [0, 2 * PAGE_SIZE]

    def test_write_sequencing_independent_of_soft_dirty(self):
        tracker = PageTracker(0, 2 * PAGE_SIZE)
        tracker.note_write(0, 8)
        seq = tracker.write_seq
        # clear() resets soft-dirty bits but must not disturb sequencing:
        # the update-time dirty filter, the checkpoint deltas and the
        # trace memo's stamp are independent readers.
        tracker.clear()
        assert not is_dirty(tracker, 0)
        assert tracker.write_seq == seq
        assert list(tracker.pages_written_since(seq)) == []
        tracker.note_write(0, 8)
        assert tracker.write_seq == seq + 1
        assert list(tracker.pages_written_since(seq)) == [0]


class TestAddressSpace:
    def test_map_read_write(self, space):
        m = space.map(8192, address=0x20000, name="t")
        space.write_bytes(0x20010, b"hello")
        assert space.read_bytes(0x20010, 5) == b"hello"

    def test_unmapped_read_faults(self, space):
        with pytest.raises(MemoryFault):
            space.read_bytes(0x999000, 4)

    def test_overlap_rejected(self, space):
        space.map(4096, address=0x20000)
        with pytest.raises(MemoryFault):
            space.map(4096, address=0x20000, fixed=True)

    def test_cross_mapping_write_faults(self, space):
        space.map(4096, address=0x20000)
        with pytest.raises(MemoryFault):
            space.write_bytes(0x20000 + 4090, b"0123456789")

    def test_word_roundtrip(self, space):
        space.map(4096, address=0x20000)
        space.write_word(0x20008, 0xABCDEF)
        assert space.read_word(0x20008) == 0xABCDEF

    def test_soft_dirty_interface(self, space):
        space.map(4096, address=0x20000)
        space.clear_soft_dirty()
        assert not space_range_dirty(space, 0x20000, 64)
        space.write_bytes(0x20000, b"x")
        assert space_range_dirty(space, 0x20000, 64)
        assert space.soft_dirty_faults == 1

    def test_clone_preserves_bytes_and_tracking(self, space):
        space.map(4096, address=0x20000)
        space.write_bytes(0x20000, b"abc")
        space.clear_soft_dirty()
        twin = space.clone()
        assert twin.read_bytes(0x20000, 3) == b"abc"
        assert not space_range_dirty(twin, 0x20000, 4)
        twin.write_bytes(0x20000, b"z")
        assert space_range_dirty(twin, 0x20000, 4)
        assert not space_range_dirty(space, 0x20000, 4)  # independent after clone

    def test_anonymous_mmap_allocates_distinct(self, space):
        a = space.map(4096)
        b = space.map(4096)
        assert a.base != b.base

    def test_guard_gap_fault_names_neighbours(self, space):
        space.map(4096, address=0x20000, name="left")
        space.map(4096, address=0x30000, name="right")
        with pytest.raises(MemoryFault) as exc:
            space.read_bytes(0x25000, 4)
        message = str(exc.value)
        assert "left" in message and "right" in message
        assert "0x21000" in message and "0x30000" in message

    def test_fault_past_last_mapping_names_it(self, space):
        space.map(4096, address=0x20000, name="only")
        with pytest.raises(MemoryFault) as exc:
            space.write_bytes(0x22000, b"x")
        assert "past 'only'" in str(exc.value)

    def test_fault_in_empty_space(self):
        space = AddressSpace()
        with pytest.raises(MemoryFault) as exc:
            space.read_bytes(0x1000, 1)
        assert "no mappings exist" in str(exc.value)

    def test_view_is_zero_copy(self, space):
        space.map(4096, address=0x20000)
        space.write_bytes(0x20010, b"before")
        window = space.view(0x20010, 6)
        assert bytes(window) == b"before"
        # A later write through the space is visible through the same
        # window: the view aliases the backing store, it is no snapshot.
        space.write_bytes(0x20010, b"after!")
        assert bytes(window) == b"after!"

    def test_view_faults_like_reads(self, space):
        space.map(4096, address=0x20000)
        with pytest.raises(MemoryFault):
            space.view(0x999000, 8)
        with pytest.raises(MemoryFault):
            space.view(0x20000 + 4090, 16)  # crosses mapping end

    def test_mapping_at_many_mappings(self, space):
        mapped = [space.map(4096, address=0x100000 + i * 0x10000) for i in range(16)]
        for m in mapped:
            assert space.mapping_at(m.base) is m
            assert space.mapping_at(m.end - 1) is m
            assert space.mapping_at(m.end) is None  # guard gap


class TestPtMalloc:
    def test_malloc_returns_aligned(self, heap):
        addr = heap.malloc(24)
        assert addr % 16 == 0

    def test_malloc_free_reuse(self, heap):
        a = heap.malloc(64)
        heap.free(a)
        b = heap.malloc(64)
        assert b == a  # first-fit reuses the released span

    def test_free_unknown_raises(self, heap):
        with pytest.raises(AllocatorError):
            heap.free(0x12345)

    def test_double_free_raises(self, heap):
        a = heap.malloc(32)
        heap.free(a)
        with pytest.raises(AllocatorError):
            heap.free(a)

    def test_find_chunk(self, heap):
        a = heap.malloc(100)
        chunk = heap.find_chunk(a + 50)
        assert chunk is not None and chunk.user_base == a
        assert heap.find_chunk(a + 100) is None or heap.find_chunk(a + 100).user_base != a

    def test_header_in_band(self, heap, space):
        a = heap.malloc(32)
        size = int.from_bytes(space.read_bytes(a - HEADER_SIZE, 8), "little")
        assert size >= 32 + HEADER_SIZE

    def test_startup_flagging_and_deferred_free(self, startup_heap):
        a = startup_heap.malloc(32)
        assert startup_heap.find_chunk(a).startup
        startup_heap.free(a)  # deferred: address must NOT be reused
        b = startup_heap.malloc(32)
        assert b != a
        startup_heap.end_startup()
        # Now the deferred free ran; the address becomes reusable.
        c = startup_heap.malloc(32)
        assert c == a

    def test_reserve_range_over_a_live_chunk_raises(self, heap):
        a = heap.malloc(64)
        with pytest.raises(AllocatorError):
            heap.reserve_range(a, 64)

    def test_reserve_range_blocks_allocation(self, heap):
        base = heap.base + 1024
        heap.reserve_range(base, 4096)
        seen = {heap.malloc(256) for _ in range(64)}
        for addr in seen:
            chunk = heap.find_chunk(addr)
            assert chunk.base + chunk.total_size <= base or chunk.base >= base + 4096

    def test_freed_memory_scrubbed(self, heap, space):
        a = heap.malloc(16)
        space.write_word(a, 0xDEAD)
        heap.free(a)
        assert space.read_word(a) == 0

    def test_clone_into(self, heap, space):
        a = heap.malloc(32)
        space.write_bytes(a, b"payload")
        twin_space = space.clone()
        twin = heap.clone_into(twin_space)
        assert twin.find_chunk(a).user_base == a
        b = twin.malloc(32)
        assert b != a  # occupied in the clone too
        assert twin_space.read_bytes(a, 7) == b"payload"

    @given(st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=60))
    @settings(max_examples=30)
    def test_alloc_free_all_invariant(self, sizes):
        space = AddressSpace()
        heap = PtMallocHeap(space)
        heap.end_startup()
        free_before = heap._free.total_free()
        addrs = [heap.malloc(s) for s in sizes]
        assert len(set(addrs)) == len(addrs)  # no overlap
        for addr in addrs:
            heap.free(addr)
        assert heap._free.total_free() == free_before  # full coalescing
        assert heap.live_chunk_count() == 0


class TestRegions:
    def test_region_bump(self, heap):
        region = RegionAllocator(heap, block_size=1024)
        a = region.alloc(100)
        b = region.alloc(100)
        assert b > a  # bump within the same block
        assert region.block_count() == 1

    def test_region_grows_blocks(self, heap):
        region = RegionAllocator(heap, block_size=256)
        for _ in range(10):
            region.alloc(200)
        assert region.block_count() > 1

    def test_region_oversized(self, heap):
        region = RegionAllocator(heap, block_size=256)
        addr = region.alloc(5000)
        assert addr != 0

    def test_region_destroy_releases(self, heap):
        live = heap.live_chunk_count()
        region = RegionAllocator(heap, block_size=256)
        region.alloc(100)
        region.destroy()
        assert heap.live_chunk_count() == live

    def test_slab_too_large(self, heap):
        slab = SlabAllocator(heap)
        with pytest.raises(AllocatorError):
            slab.alloc(1 << 20)

    def test_nested_pool_cascade(self, heap):
        root = NestedPool(heap, name="root", block_size=256)
        child = root.create_child("child")
        grandchild = child.create_child("gc")
        grandchild.alloc(64)
        root.destroy()
        assert child.destroyed and grandchild.destroyed

    def test_destroyed_pool_rejects_alloc(self, heap):
        pool = NestedPool(heap, block_size=256)
        pool.destroy()
        with pytest.raises(AllocatorError):
            pool.alloc(8)


class TestTagStore:
    def test_register_lookup(self):
        tags = TagStore()
        t = StructType("s", [("a", INT32)])
        tag = tags.register(0x1000, t, ORIGIN_HEAP, site="main/alloc")
        assert tags.lookup(0x1000) is tag
        assert tags.find_containing(0x1002) is tag
        assert tags.find_containing(0x1004) is None

    def test_unregister(self):
        tags = TagStore()
        tags.register(0x1000, INT32, ORIGIN_STATIC)
        assert tags.unregister(0x1000) is not None
        assert tags.lookup(0x1000) is None

    def test_reregistration_replaces(self):
        tags = TagStore()
        tags.register(0x1000, INT32, ORIGIN_HEAP)
        tags.register(0x1000, StructType("s", [("a", INT32)]), ORIGIN_HEAP)
        assert len(tags) == 1
        assert tags.lookup(0x1000).type.name == "s"

    def test_origin_filter(self):
        tags = TagStore()
        tags.register(0x1000, INT32, ORIGIN_HEAP)
        tags.register(0x2000, INT32, ORIGIN_STATIC)
        assert len(list(tags.tags(origin=ORIGIN_HEAP))) == 1

    def test_overhead_accounting(self):
        tags = TagStore()
        assert tags.overhead_bytes() == 0
        tags.register(0x1000, INT32, ORIGIN_HEAP)
        assert tags.overhead_bytes() > 0

    def test_clone_independent(self):
        tags = TagStore()
        tags.register(0x1000, INT32, ORIGIN_HEAP)
        twin = tags.clone()
        twin.unregister(0x1000)
        assert tags.lookup(0x1000) is not None


class TestStartupModeEdges:
    """Global-separability hardening: a deferred free is logically dead.

    During startup, frees are deferred so no startup-time address is ever
    reused (paper §5).  The deferred chunk stays *resident*, which made a
    second free or a realloc of it silently corrupt the deferred-free
    accounting — both are the same use-after-free they would be outside
    startup mode and must raise.
    """

    def _heap(self):
        return PtMallocHeap(AddressSpace())

    def test_startup_double_free_raises(self):
        heap = self._heap()
        a = heap.malloc(64)
        heap.free(a)  # deferred, chunk stays resident
        with pytest.raises(AllocatorError):
            heap.free(a)

    def test_deferred_free_defers_until_end_startup(self):
        heap = self._heap()
        a = heap.malloc(64)
        heap.free(a)
        assert heap.malloc(64) != a  # no startup-time address reuse
        live = heap.live_chunk_count()
        heap.end_startup()
        assert heap.live_chunk_count() == live - 1  # now actually released
        assert not heap._deferred_frees and not heap._deferred

    def test_end_startup_restores_normal_free_semantics(self):
        heap = self._heap()
        heap.end_startup()
        a = heap.malloc(64)
        heap.free(a)  # immediate outside startup mode
        assert heap.live_chunk_count() == 0
        with pytest.raises(AllocatorError):
            heap.free(a)

    def test_clone_preserves_deferred_accounting(self):
        space = AddressSpace()
        heap = PtMallocHeap(space)
        a = heap.malloc(64)
        heap.free(a)
        twin = heap.clone_into(space.clone())
        with pytest.raises(AllocatorError):
            twin.free(a)  # still a double free in the twin
        twin.end_startup()
        assert not twin._deferred and not twin._deferred_frees
        # The original is untouched by the twin's end_startup.
        assert a in heap._deferred
