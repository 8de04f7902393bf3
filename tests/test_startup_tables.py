"""Startup tables in one call per backing block, held against the loop.

httpd's directive table and nginx's locale table are 256 same-size
entries each, allocated and written at every startup.
``RegionAllocator.alloc_table`` places them with one ``alloc`` and writes
them with one ``AddressSpace.write_table`` per backing block
(``PageTracker.note_table``: one pass over the block's pages).  The oracle
is the loop it replaced, ``alloc`` then ``write_bytes`` per entry, kept
here: addresses, blocks, bytes, every tracker field, the counters and the
virtual clock must be the loop's.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.bench.harness import boot_server
from repro.clock import VirtualClock
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mem.address_space import AddressSpace
from repro.mem.ptmalloc import PtMallocHeap
from repro.mem.regions import BLOCK_HEADER_SIZE, RegionAllocator
from repro.runtime.cruntime import CRuntime
from repro.servers import httpd


def table_by_loop(region, size, payloads):
    """``alloc_table`` as it was: one ``alloc`` and one write per entry."""
    space = region._heap.space
    addresses = []
    for payload in payloads:
        addresses.append(region.alloc(size))
        space.write_bytes(addresses[-1], payload)
    return addresses


def _space_state(space):
    state = [space.soft_dirty_faults]
    for mapping in space.mappings():
        tracker = mapping.tracker
        state.append((
            mapping.base, bytes(mapping.data), tracker.write_seq,
            list(tracker._page_seq.items()),  # insertion order too
            sorted(tracker.ever_written), sorted(tracker._dirty), tracker.fault_count,
        ))
    return state


def _world(seed, block_size, recycle, others, clear):
    """A heap, a region on it and what came before the table: recycled
    heap bytes under the region's blocks, blocks of other sizes, a cleared
    soft-dirty state."""
    rng = random.Random(seed)
    heap = PtMallocHeap(AddressSpace())
    heap.end_startup()
    if recycle:  # freed chunks of random bytes, under the blocks to come
        chunks = [heap.malloc(rng.randrange(1, 3 * block_size)) for _ in range(recycle)]
        for chunk in chunks:
            heap.space.write_bytes(chunk, rng.randbytes(heap.find_chunk(chunk).user_size))
        for chunk in chunks[::2]:
            heap.free(chunk)
    region = RegionAllocator(heap, block_size)
    for _ in range(others):
        region.alloc(rng.choice((8, 48, rng.randrange(1, block_size - 40 + 1), block_size + 1)))
    if clear:
        heap.space.clear_soft_dirty()
    return heap, region


@given(
    seed=st.integers(0, 2**16),
    block_size=st.sampled_from((256, 1024, 8 * 1024)),
    fraction=st.floats(0, 1),
    oversized=st.booleans(),
    count=st.integers(0, 40),
    recycle=st.integers(0, 6),
    others=st.integers(0, 6),
    clear=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_a_table_is_the_loop(seed, block_size, fraction, oversized, count, recycle, others, clear):
    """Entry sizes from 1 to the largest that shares a block, or one that
    takes a block of its own; payloads up to the entry size."""
    limit = block_size - BLOCK_HEADER_SIZE - 16
    size = limit + 1 + int(fraction * 3 * block_size) if oversized else 1 + int(fraction * (limit - 1))
    rng = random.Random(seed)
    payloads = [rng.randbytes(rng.randrange(size + 1)) for _ in range(count)]
    outcomes = []
    for by_table in (True, False):
        heap, region = _world(seed, block_size, recycle, others, clear)
        collector = obs.Collector(VirtualClock())
        with obs.scoped(collector):
            if by_table:
                addresses = region.alloc_table(size, payloads)
            else:
                addresses = table_by_loop(region, size, payloads)
            after = region.alloc(size)  # first fit resumes where the loop's did
        outcomes.append((
            addresses, after, _space_state(heap.space), region.alloc_count,
            region.bytes_allocated, [(b.base, b.size, b.cursor) for b in region.blocks()],
            heap.chunk_table(), collector.counters.snapshot(),
        ))
    assert outcomes[0] == outcomes[1]


# -- the servers, end to end ------------------------------------------------------


def _region_table_by_loop(self, region, size, payloads):
    """``CRuntime.region_alloc_table`` as nginx's loop was: a
    ``region_alloc_raw`` and a write per entry."""
    addresses = []
    for payload in payloads:
        addresses.append(self.region_alloc_raw(region, size))
        self.process.space.write_bytes(addresses[-1], payload)
    return addresses


def _machine(kernel):
    """Every process's mappings, trackers, chunks and tags, and the clock."""
    state = [kernel.clock.now_ns, kernel.steps_executed]
    for process in kernel.processes.values():
        if not process.exited:
            tags = [(t.address, t.tag_id, t.origin, t.site) for t in process.tags._by_address.values()]
            state.append((process.name, _space_state(process.space), process.heap.chunk_table(), tags))
    return state


def _boot_and_roll(name, make_program=None):
    world = boot_server(name, make_program=make_program)
    collector = obs.Collector(world.kernel.clock)
    with obs.scoped(collector):
        world.kernel.run(max_ns=50_000_000)
        booted = _machine(world.kernel)
        config = MCRConfig(update_mode="rolling", rolling_batch=4) if name == "httpd" else None
        result = McrCtl(world.kernel, world.session).live_update(world.make_program(2), config=config)
    return booted, result.committed, result.total_ns, _machine(world.kernel), collector.counters.snapshot()


def test_servers_boot_and_update_as_by_the_loop(monkeypatch):
    """A 16-worker httpd rolled in batches of 4, nginx and nginx_reg (whose
    region instrumentation charges and tags each entry) updated: boot and
    update leave the machine the loop leaves, clock and counters too."""
    sixteen = lambda version=1: httpd.make_program(version, server_processes=16)
    computed = [_boot_and_roll("httpd", sixteen), _boot_and_roll("nginx"), _boot_and_roll("nginx_reg")]
    monkeypatch.setattr(RegionAllocator, "alloc_table", table_by_loop)
    monkeypatch.setattr(CRuntime, "region_alloc_table", _region_table_by_loop)
    assert computed == [_boot_and_roll("httpd", sixteen), _boot_and_roll("nginx"), _boot_and_roll("nginx_reg")]
    assert all(committed for _booted, committed, *_rest in computed)


def _boot_counting(monkeypatch):
    """Boot a 16-worker httpd; count directive entries written by
    ``write_bytes``, ``write_table`` calls and the blocks tables fill."""
    seen = {"entry_writes": 0, "table_writes": 0, "blocks": 0}
    directives = set(httpd.DIRECTIVES)
    write_bytes, write_table = AddressSpace.write_bytes, AddressSpace.write_table
    alloc_table = RegionAllocator.alloc_table

    def counting_bytes(self, address, data):
        seen["entry_writes"] += data in directives
        write_bytes(self, address, data)

    def counting_table(self, address, stride, payloads):
        seen["table_writes"] += 1
        write_table(self, address, stride, payloads)

    def counting_alloc(self, size, payloads):
        addresses = alloc_table(self, size, payloads)
        blocks = [(block.base, block.end) for block in self.blocks()]
        seen["blocks"] += len({b for a in addresses for b in blocks if b[0] <= a < b[1]})
        return addresses

    monkeypatch.setattr(AddressSpace, "write_bytes", counting_bytes)
    monkeypatch.setattr(AddressSpace, "write_table", counting_table)
    monkeypatch.setattr(RegionAllocator, "alloc_table", counting_alloc)
    boot_server("httpd", make_program=lambda version=1: httpd.make_program(version, server_processes=16))
    return seen


def test_a_booted_httpd_writes_its_tables_one_block_at_a_time(monkeypatch):
    """Booting a 16-worker httpd: no ``write_bytes`` call writes a
    directive entry, and each block a table fills takes one strided write."""
    seen = _boot_counting(monkeypatch)
    assert seen["entry_writes"] == 0
    assert seen["table_writes"] == seen["blocks"]
    assert 16 * 16 <= seen["blocks"] <= 16 * 18  # 256 entries of 512 bytes in 8 KiB blocks
    monkeypatch.undo()
    monkeypatch.setattr(RegionAllocator, "alloc_table", table_by_loop)
    assert _boot_counting(monkeypatch)["entry_writes"] == 16 * 256  # what the guard catches
