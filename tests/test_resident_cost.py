"""Costs that scale with resident pages and open blocks, bit for bit.

Three hot paths were rewritten to do less work for the same answer, so
each is pinned against the body it replaced, kept here as the oracle:

* ``Mapping.crc32`` folds runs of never-written (all-zero) pages into the
  CRC in closed form instead of reading them — against ``zlib.crc32`` of
  the dense store, and ``TreeFingerprint`` against a dense recomputation;
* ``RegionAllocator.alloc`` resumes first fit where the last request of
  that size left off — against the from-block-zero linear scan, address
  for address;
* ``PageTracker.note_write`` has a single-page fast path — against the
  old body, field for field.

The count-based guards hold the costs themselves (bytes through
``zlib.crc32``, blocks probed, bytes a checkpoint image stores and the
widest slice its capture and restore take of a store) without reading a
clock.
"""

from __future__ import annotations

import mmap
import random
import struct
import types
import zlib

import pytest

from repro.bench.harness import boot_server
from repro.checkpoint import (
    checkpoint_node,
    hold_quiesced,
    read_image,
    restore_image,
    write_image,
)
from repro.fleet.drill import SETTLE_NS
from repro.fleet.node import Node
from repro.mcr.faults import TreeFingerprint
from repro.mem import address_space, regions
from repro.mem.address_space import AddressSpace, _crc32_zeros
from repro.mem.pages import PAGE_SIZE, PageTracker
from repro.mem.ptmalloc import PtMallocHeap
from repro.mem.regions import BLOCK_HEADER_SIZE, NestedPool, Region, RegionAllocator
from repro.servers import httpd

SEEDS = (0, 1, 0xFFFFFFFF, 0xDEADBEEF, 0x80000000, 123456789)


# -- the zero-run fold ----------------------------------------------------------


class TestCrc32Zeros:
    @pytest.mark.parametrize("n", [0, 1, 7, 4095, 4096, 4097, 123_456, 4 << 20])
    def test_equals_zlib_over_materialized_zeros(self, n):
        zeros = bytes(n)
        for seed in SEEDS:
            assert _crc32_zeros(seed, n) == zlib.crc32(zeros, seed)

    @pytest.mark.parametrize("a,b", [(1 << 40, 1 << 41), ((1 << 50) + 4097, 3), (0, 1 << 45)])
    def test_chaining_law_beyond_materializable_lengths(self, a, b):
        for seed in SEEDS:
            assert _crc32_zeros(_crc32_zeros(seed, a), b) == _crc32_zeros(seed, a + b)

    def test_result_stays_an_unsigned_32_bit_value(self):
        for seed in SEEDS:
            assert 0 <= _crc32_zeros(seed, 1 << 33) <= 0xFFFFFFFF


def dense_crc(mapping) -> int:
    """What the fingerprint computed before: every mapped byte through zlib."""
    return zlib.crc32(mapping.data)


class TestMappingCrc32:
    def test_all_zero_mapping(self, space):
        mapping = space.map(1 << 20)
        assert not mapping.tracker.ever_written
        assert mapping.crc32() == dense_crc(mapping) == zlib.crc32(bytes(1 << 20))

    def test_fully_resident_mapping(self, space):
        mapping = space.map(8 * PAGE_SIZE)
        space.write_bytes(mapping.base, bytes(range(256)) * (8 * PAGE_SIZE // 256))
        assert len(mapping.tracker.ever_written) == 8
        assert mapping.crc32() == dense_crc(mapping)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_writes_loads_and_clones(self, seed):
        rng = random.Random(seed)
        space = AddressSpace()
        mappings = [space.map(rng.choice((1, 3, 64, 300)) * PAGE_SIZE) for _ in range(3)]
        for _ in range(60):
            mapping = rng.choice(mappings)
            kind = rng.random()
            if kind < 0.4:
                space.write_word(
                    mapping.base + rng.randrange(mapping.size // 8) * 8, rng.getrandbits(64)
                )
            elif kind < 0.8:
                length = min(rng.choice((1, 17, PAGE_SIZE, 3 * PAGE_SIZE + 5)), mapping.size)
                offset = rng.randrange(mapping.size - length + 1)
                space.write_bytes(mapping.base + offset, rng.randbytes(length))
            else:
                # A checkpoint graft: zero payloads must leave pages
                # non-resident, non-zero ones must make them resident.
                length = min(rng.choice((PAGE_SIZE, 2 * PAGE_SIZE, 100)), mapping.size)
                offset = rng.randrange(mapping.size - length + 1)
                payload = bytes(length) if rng.random() < 0.5 else rng.randbytes(length)
                mapping.load(offset, payload)
            assert mapping.crc32() == dense_crc(mapping)
        twin = space.clone()
        for mapping, copy in zip(space.mappings(), twin.mappings()):
            assert copy.crc32() == dense_crc(copy) == mapping.crc32()

    def test_last_page_resident_and_first_page_resident(self, space):
        mapping = space.map(16 * PAGE_SIZE)
        space.write_word(mapping.base, 1)
        space.write_word(mapping.base + mapping.size - 8, 2)
        assert sorted(mapping.tracker.ever_written) == [0, 15]
        assert mapping.crc32() == dense_crc(mapping)


# -- the fingerprint ----------------------------------------------------------------


def _boot_httpd(workers: int):
    return boot_server(
        "httpd",
        make_program=lambda version=1: httpd.make_program(version, server_processes=workers),
    )


def _with_dense_crcs(fingerprint: TreeFingerprint, processes) -> dict:
    """``fingerprint.to_dict()`` with every memory CRC recomputed densely."""
    payload = fingerprint.to_dict()
    for process in processes:
        record = payload["processes"][f"{process.pid}|{process.name}"]
        record["mem"] = [
            [name, base, size, zlib.crc32(process.space.view(base, size))]
            for name, base, size, _ in record["mem"]
        ]
    return payload


class TestFingerprintBitIdentity:
    def test_booted_httpd_fingerprint_equals_dense_crc_fingerprint(self):
        world = _boot_httpd(4)
        fingerprint = TreeFingerprint.capture(world.kernel, world.root)
        assert len(fingerprint.processes) == 5
        assert fingerprint.to_dict() == _with_dense_crcs(fingerprint, world.root.tree())

    def test_restored_image_fingerprint_equals_dense_crc_fingerprint(self, tmp_path):
        # Restore grafts through ``Mapping.load``: the other writer the
        # resident-only CRC has to agree with.
        source = Node.boot("memcache", node_id=0)
        restored = None
        try:
            path = str(tmp_path / "node.img")
            write_image(checkpoint_node(source), path)
            restored = restore_image(read_image(path), node_id=1)
            fingerprint = restored.fingerprint()
            assert fingerprint.to_dict() == _with_dense_crcs(fingerprint, restored.root.tree())
        finally:
            for node in (source, restored):
                if node is not None and not node.torn_down:
                    node.teardown()

    def test_fingerprint_reads_resident_bytes_only(self, monkeypatch):
        world = _boot_httpd(16)
        processes = world.root.tree()
        resident = sum(process.space.resident_bytes() for process in processes)
        mapped = sum(process.space.mapped_bytes() for process in processes)
        assert len(processes) == 17 and resident * 8 < mapped
        fed = []
        real_crc32 = zlib.crc32

        def counting_crc32(data, *start):
            fed.append(len(data))
            return real_crc32(data, *start)

        monkeypatch.setattr(zlib, "crc32", counting_crc32)
        TreeFingerprint.capture(world.kernel, world.root)
        monkeypatch.undo()
        assert fed, "the fingerprint no longer goes through zlib.crc32 at all"
        assert sum(fed) <= resident


# -- checkpoint images: pay for resident pages, not mapped size -----------------


def _warm_httpd() -> Node:
    node = Node.boot("httpd")
    node.serve(32)
    node.drain()
    node.settle(SETTLE_NS)
    return node


def _mappings(node: Node) -> dict:
    return {(p.pid, m.base): m for p in node.root.tree() for m in p.space.mappings()}


class _CountingStore(mmap.mmap):
    """A mapping store that records how wide every slice taken of it is."""

    widths = None  # a list while a test is counting

    def _note(self, key) -> None:
        if self.widths is not None and isinstance(key, slice):
            start, stop, _step = key.indices(len(self))
            self.widths.append((self, stop - start))

    def __getitem__(self, key):
        self._note(key)
        return super().__getitem__(key)

    def __setitem__(self, key, value) -> None:
        self._note(key)
        super().__setitem__(key, value)


class TestImageCostFollowsResidentPages:
    def test_an_image_stores_the_resident_pages_and_meta_only(self):
        node = _warm_httpd()
        try:
            image = checkpoint_node(node)
            mappings = _mappings(node)
            resident = sum(len(m.tracker.ever_written) for m in mappings.values()) * PAGE_SIZE
            mapped = sum(m.size for m in mappings.values())
            assert resident * 8 < mapped
            assert image.stored_bytes() == resident
            assert image.total_bytes() == mapped
            counters = node.collector.counters
            assert counters.get("checkpoint.image_bytes") == mapped
            assert counters.get("checkpoint.image_stored_bytes") == resident
            # What encode adds is the header, the meta document and its
            # CRC; the meta grows with records and runs, never with bytes.
            blob = image.encode()
            (meta_len,) = struct.unpack_from("<I", blob, 12)
            assert len(blob) - resident == 16 + meta_len + 4
            runs = sum(len(section.runs) for section in image.sections.values())
            assert meta_len < 16 * 1024 + 256 * (len(mappings) + runs)
        finally:
            node.teardown()

    def test_restore_leaves_resident_what_source_or_boot_touched(self):
        source, fresh, restored = _warm_httpd(), Node.boot("httpd", node_id=2), None
        try:
            restored = restore_image(checkpoint_node(source), node_id=1)
            with hold_quiesced(fresh):
                booted = {key: set(m.tracker.ever_written) for key, m in _mappings(fresh).items()}
            touched = _mappings(source)
            union = 0
            for key, mapping in _mappings(restored).items():
                either = touched[key].tracker.ever_written | booted[key]
                assert mapping.tracker.ever_written <= either, mapping.name
                union += len(either) * PAGE_SIZE
            assert sum(p.space.resident_bytes() for p in restored.root.tree()) <= union
        finally:
            for node in (source, fresh, restored):
                if node is not None:
                    node.teardown()

    def test_capture_and_restore_never_take_a_whole_sparse_mapping(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            address_space,
            "_mmap",
            types.SimpleNamespace(
                mmap=_CountingStore,
                MAP_PRIVATE=mmap.MAP_PRIVATE,
                MAP_ANONYMOUS=mmap.MAP_ANONYMOUS,
            ),
        )
        widths, views = [], []
        plain_view = AddressSpace.view

        def counting_view(space, address, size):
            views.append(size)
            return plain_view(space, address, size)

        source, restored = _warm_httpd(), None
        try:
            with monkeypatch.context() as counting:
                counting.setattr(_CountingStore, "widths", widths)
                counting.setattr(AddressSpace, "view", counting_view)
                path = str(tmp_path / "node.img")
                write_image(checkpoint_node(source), path)
                restored = restore_image(read_image(path), node_id=1)
            assert restored.fingerprint().matches(source.fingerprint())
            assert views == [], "the image path reads through resident runs, not views"
            widest = {}
            for store, width in widths:
                widest[store] = max(width, widest.get(store, 0))
            stores = {m.data: m for node in (source, restored) for m in _mappings(node).values()}
            assert len(widest) >= 6 and set(widest) <= set(stores)
            for store, width in widest.items():
                mapping = stores[store]
                longest_run = max(
                    (stop - start for start, stop in mapping.tracker.resident_runs()), default=0
                )
                assert width <= longest_run < mapping.size, mapping.name
        finally:
            for node in (source, restored):
                if node is not None:
                    node.teardown()


# -- PageTracker.note_write -----------------------------------------------------


def note_write_reference(self: PageTracker, address: int, size: int) -> int:
    """``PageTracker.note_write`` as it was before the single-page fast path."""
    first_touch = (address - self.base) // PAGE_SIZE
    last_touch = (address + max(size, 1) - 1 - self.base) // PAGE_SIZE
    self.ever_written.update(range(first_touch, last_touch + 1))
    self.write_seq += 1
    seq = self.write_seq
    page_seq = self._page_seq
    for page in range(first_touch, last_touch + 1):
        page_seq[page] = seq
    if not self._cleared_once:
        return 0
    first = (address - self.base) // PAGE_SIZE
    last = (address + max(size, 1) - 1 - self.base) // PAGE_SIZE
    faults = 0
    for page in range(first, last + 1):
        if page not in self._dirty:
            self._dirty.add(page)
            faults += 1
    self.fault_count += faults
    return faults


def _tracker_state(tracker: PageTracker):
    return (
        tracker._cleared_once,
        sorted(tracker._dirty),
        sorted(tracker.ever_written),
        tracker.fault_count,
        tracker.write_seq,
        list(tracker._page_seq.items()),  # insertion order too
    )


@pytest.mark.parametrize("seed", range(10))
def test_note_write_matches_the_old_body(seed):
    rng = random.Random(seed)
    base = 0x7000_0000
    pages = 64
    new = PageTracker(base, pages * PAGE_SIZE)
    old = PageTracker(base, pages * PAGE_SIZE)
    for _ in range(400):
        roll = rng.random()
        if roll < 0.03:
            new.clear()
            old.clear()
        elif roll < 0.05:
            new, old = new.clone(), old.clone()
        else:
            size = rng.choice((0, 1, 8, 8, 8, 48, 512, PAGE_SIZE, PAGE_SIZE + 1, 5 * PAGE_SIZE))
            address = base + rng.randrange(pages * PAGE_SIZE - max(size, 1) + 1)
            if rng.random() < 0.3:  # straddle or sit on a page edge
                address = base + rng.randrange(1, pages) * PAGE_SIZE - rng.choice((0, 1, 4, 8))
                size = min(size, base + pages * PAGE_SIZE - address)
            assert new.note_write(address, size) == note_write_reference(old, address, size)
        assert _tracker_state(new) == _tracker_state(old)


# -- resumable first fit ------------------------------------------------------------


class LinearFirstFit(RegionAllocator):
    """``RegionAllocator.alloc`` as it was: rescan from block zero every time."""

    def alloc(self, size: int) -> int:
        if size <= 0:
            raise regions.AllocatorError(f"region alloc of non-positive size {size}")
        if size > self._block_size - BLOCK_HEADER_SIZE - 16:
            region = self._append_block(size + BLOCK_HEADER_SIZE + 16)
            address = region.bump(size)
            self.alloc_count += 1
            self.bytes_allocated += size
            return address
        for region in self._regions:
            address = region.bump(size)
            if address is not None:
                self.alloc_count += 1
                self.bytes_allocated += size
                return address
        region = self._append_block(self._block_size)
        address = region.bump(size)
        self.alloc_count += 1
        self.bytes_allocated += size
        return address


def _fresh_heap() -> PtMallocHeap:
    heap = PtMallocHeap(AddressSpace())
    heap.end_startup()
    return heap


def _drive_region(seed: int, allocator_class) -> list:
    """A seeded alloc/destroy script; every address and block count it saw."""
    rng = random.Random(seed)
    block_size = rng.choice((256, 1024, 8 * 1024))
    region = allocator_class(_fresh_heap(), block_size)
    seen = []
    for _ in range(600):
        roll = rng.random()
        if roll < 0.01:
            region.destroy()
            seen.append("destroy")
        elif roll < 0.05:
            seen.append(region.alloc(block_size + rng.randrange(1, 500)))  # "large"
        else:
            # Few distinct sizes (as servers ask for) plus arbitrary ones,
            # up to the largest that still shares a block.
            size = rng.choice((8, 32, 48, 64, 512, rng.randrange(1, block_size - 40 + 1)))
            seen.append(region.alloc(min(size, block_size - 40)))
        seen.append((region.block_count(), region.alloc_count, region.bytes_allocated))
    seen.append([(block.base, block.size, block.cursor) for block in region.blocks()])
    return seen


def _total_block_count(pool: NestedPool) -> int:
    """Blocks held by ``pool`` and its whole subtree."""
    return sum(1 for _ in pool.blocks()) + sum(_total_block_count(c) for c in pool.children)


def _drive_pools(seed: int) -> list:
    """A seeded script over a pool tree: alloc, child, destroy."""
    rng = random.Random(seed)
    root = NestedPool(_fresh_heap(), block_size=rng.choice((256, 1024)), name="root")
    pools = [root]
    seen = []
    for _ in range(500):
        pools = [pool for pool in pools if not pool.destroyed]
        pool = rng.choice(pools)
        roll = rng.random()
        if roll < 0.08:
            pools.append(pool.create_child(f"child-{len(seen)}"))
            seen.append(pools[-1].first_block_base)
        elif roll < 0.11 and pool is not root:
            pool.destroy()
            seen.append("destroy")
        elif roll < 0.18:
            seen.append(pool.alloc(rng.randrange(2000, 3000)))  # "large"
        else:
            seen.append(pool.alloc(rng.choice((8, 32, 48, 64, 100, 200))))
        seen.append(_total_block_count(root))
    seen.append(
        [(block.base, block.cursor) for pool in pools if not pool.destroyed for block in pool.blocks()]
    )
    return seen


class TestResumedFirstFitAddressSequence:
    @pytest.mark.parametrize("seed", range(12))
    def test_region_allocator_matches_linear_first_fit(self, seed):
        assert _drive_region(seed, RegionAllocator) == _drive_region(seed, LinearFirstFit)

    @pytest.mark.parametrize("seed", range(12))
    def test_nested_pools_match_linear_first_fit(self, seed, monkeypatch):
        resumed = _drive_pools(seed)
        monkeypatch.setattr(regions, "RegionAllocator", LinearFirstFit)
        assert resumed == _drive_pools(seed)

    def test_a_smaller_size_still_finds_the_earlier_block(self):
        # The memo is per size: block 0 refusing 200 says nothing about 8.
        region = RegionAllocator(_fresh_heap(), block_size=256)
        first = region.alloc(200)
        second = region.alloc(200)
        assert region.block_count() == 2
        small = region.alloc(8)
        blocks = list(region.blocks())
        assert blocks[0].base < first < small < blocks[0].end
        assert blocks[1].base < second < blocks[1].end


class _CountingRegion(Region):
    """A ``Region`` that counts cursor reads: one per block probed."""

    __slots__ = ()
    probes = 0

    @property
    def cursor(self) -> int:
        _CountingRegion.probes += 1
        return Region.cursor.__get__(self)

    @cursor.setter
    def cursor(self, value: int) -> None:
        Region.cursor.__set__(self, value)


def _probes_for_256_allocs(monkeypatch, make_pool) -> tuple:
    monkeypatch.setattr(regions, "Region", _CountingRegion)
    monkeypatch.setattr(_CountingRegion, "probes", 0)
    pool = make_pool()
    for _ in range(256):
        pool.alloc(512)
    return _CountingRegion.probes, _total_block_count(pool)


def test_pool_allocs_probe_open_blocks_not_every_block(monkeypatch):
    """256 x alloc(512) on one pool: O(allocs + blocks) probes, by count."""
    probes, blocks = _probes_for_256_allocs(
        monkeypatch, lambda: NestedPool(_fresh_heap(), block_size=8 * 1024)
    )
    assert blocks >= 16
    # One probe per alloc, plus at most one refusal and one fresh-block
    # bump per block ever appended.
    assert probes <= 256 + 2 * blocks
    monkeypatch.setattr(regions, "RegionAllocator", LinearFirstFit)
    linear_probes, linear_blocks = _probes_for_256_allocs(
        monkeypatch, lambda: NestedPool(_fresh_heap(), block_size=8 * 1024)
    )
    assert linear_blocks == blocks
    assert linear_probes > 4 * probes  # what the guard is guarding against
