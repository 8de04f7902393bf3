"""The update-scoped ``TraceMemo`` against its oracle, ``GraphBuilder.build()``.

A memoized answer is only worth having if it is *the* answer: every test
here compares what the memo hands out with a memo-free build of the same
process, node for node.  Four groups:

* the two defects the exact keys fix — a count-based layout key that let
  forked workers swap likely-pointer lists, and a write-sequence validity
  test blind to checkpoint grafts;
* the oracle on every server, and an invalidation property over random
  mutation sequences (a miss is always allowed, a stale hit never);
* forked siblings sharing one walk by transcript: the cross-process
  mutation property, sharing shown both ways, and the ablation — every
  part of the sibling key and every question kind is load-bearing;
* clock-free cost guards: how many graph walks and conservative scans one
  update runs, pinned by count.

(State transfer against the per-object ``DirtyFilter`` and the pairing loop
it replaced is ``tests/test_transfer_plan.py``.)
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench import faultmatrix
from repro.bench.harness import SERVER_BENCHES, boot_server
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan
from repro.mcr.tracing import conservative, graph, incremental, precise
from repro.mcr.tracing.graph import GraphBuilder, ObjectRecord, PointerSlot, TraceResult
from repro.runtime.annotations import Annotations
from repro.mcr.tracing.incremental import (
    TRANSCRIPTS_PER_KEY,
    TraceMemo,
    resolution_fingerprint,
    sibling_key,
    trace_stamp,
)
from repro.mcr.tracing.invariants import apply_invariants
from repro.mem.pages import PAGE_SIZE
from repro.runtime.program import GlobalVar
from repro.servers import httpd
from repro.types.descriptors import INT32, INT64, OpaqueType, PointerType, StructType
from repro.types.symbols import SymbolTable
from repro.workloads.ab import ApacheBench
from repro.workloads.holders import ConnectionHolder

from tests.helpers import (
    INDEX_CLASSES,
    CallCounter,
    boot_test_program,
    idle_main,
    make_test_program,
    unmap,
)

NODE = StructType("node", [("value", INT32), ("next", PointerType(None, name="node*"))])
NEXT = NODE.field("next").offset


# -- node-for-node comparison ----------------------------------------------------


def _slots(pointers) -> list:
    return [tuple(getattr(p, slot) for slot in PointerSlot.__slots__) for p in pointers]


def trace_key(trace: TraceResult) -> Tuple:
    """Everything a ``TraceResult`` holds, in discovery order."""
    return (
        [
            tuple(getattr(record, slot) for slot in ObjectRecord.__slots__)
            for record in trace.objects.values()
        ],
        list(trace.objects),
        _slots(trace.precise_pointers),
        _slots(trace.likely_pointers),
        trace.dangling_precise,
        trace.words_scanned,
    )


def trace_shape(trace: TraceResult) -> Tuple:
    """``trace_key`` without identities: comparable across two processes."""
    records, *rest = trace_key(trace)
    tag_at, type_at = ObjectRecord.__slots__.index("tag"), ObjectRecord.__slots__.index("type")
    shapes = []
    for record in records:
        shape = list(record)
        shape[tag_at] = record[tag_at] and record[tag_at].address
        shape[type_at] = record[type_at] and record[type_at].signature()
        shapes.append(tuple(shape))
    return (shapes, *rest)


def assert_own(trace: TraceResult, process) -> None:
    """A handed-out trace belongs to ``process``: its tags, nobody else's."""
    assert trace.process is process
    for record in trace.objects.values():
        if record.tag is not None:
            assert record.tag is process.tags.lookup(record.tag.address), record
            assert record.type is record.tag.type


@pytest.fixture(params=INDEX_CLASSES, ids=lambda cls: cls.name)
def scan_index_class(request, monkeypatch):
    """Run the test once with the scan index, once with its reference."""
    monkeypatch.setattr(graph, "PreparedScanIndex", request.param)
    return request.param


# -- bugfix: the scan key must hold the layout, not a count of it ------------------


def test_forked_workers_with_equal_counts_do_not_swap_scans(scan_index_class):
    # Two workers forked from one parent each malloc once at the same
    # address — 64 bytes in one, 128 in the other — so their malloc/free/
    # tag counts (the old shared key's "layout") are equal while a word
    # pointing 100 bytes past the chunk base resolves in only one of them.
    program = make_test_program([GlobalVar("blob", PointerType(None, name="void*"))])
    kernel, _session, parent = boot_test_program(program)
    buffer = parent.crt.malloc(64)  # shared startup buffer, scanned conservatively
    parent.crt.gset("blob", buffer)
    caller = parent.threads[1]
    small = kernel.do_fork(caller, idle_main, (), "worker-small")
    large = kernel.do_fork(caller, idle_main, (), "worker-large")
    chunk = small.heap.malloc(64)
    assert large.heap.malloc(128) == chunk
    for worker in (small, large):
        worker.space.write_word(buffer, chunk + 100)
    assert small.heap.malloc_count == large.heap.malloc_count
    assert small.space.read_bytes(buffer, 64) == large.space.read_bytes(buffer, 64)
    # Equal counts, equal bytes — and unequal layouts, which only a key
    # that holds the chunks by value can tell apart.
    assert resolution_fingerprint(small) == resolution_fingerprint(large)
    assert sibling_key(small, MCRConfig(), None) != sibling_key(large, MCRConfig(), None)

    for order in ((small, large), (large, small)):
        memo = TraceMemo()
        for worker in order:
            got = memo.trace(worker)
            want = GraphBuilder(worker).build()
            assert trace_key(got) == trace_key(want), worker.name
        # Neither a scan nor the whole walk went from one to the other.
        assert (memo.traces_built, memo.traces_shared, memo.replays_failed) == (2, 0, 0)
    # ... and the case really is the discriminating one.
    assert not GraphBuilder(small).build().likely_pointers
    (likely,) = GraphBuilder(large).build().likely_pointers
    assert (likely.value, likely.target_base, likely.interior) == (chunk + 100, chunk, True)
    assert GraphBuilder(large).build().objects[chunk].immutable


# -- bugfix: a graft changes bytes without moving write_seq --------------------------


def test_graft_over_a_pointer_slot_invalidates_the_trace():
    program = make_test_program(
        [GlobalVar("head", PointerType(NODE, name="node*"))], types={"node": NODE}
    )
    _kernel, _session, proc = boot_test_program(program)
    crt, thread = proc.crt, proc.threads[1]
    first = crt.malloc_typed(thread, NODE)
    second = crt.malloc_typed(thread, NODE)
    crt.gset("head", first)
    memo = TraceMemo()
    before = memo.trace(proc)
    assert second not in before.objects

    mapping = proc.space.mapping_at(first)
    tracker = mapping.tracker
    state = (
        sorted(tracker._dirty), tracker.write_seq, tracker.fault_count,
        list(tracker.pages_written_since(0)), proc.space.soft_dirty_faults,
    )
    slot = first + NEXT
    mapping.load(slot - mapping.base, second.to_bytes(8, "little"))
    # A graft is not a program write: nothing the dirty filter, the cost
    # model or the checkpoint deltas read has moved ...
    assert state == (
        sorted(tracker._dirty), tracker.write_seq, tracker.fault_count,
        list(tracker.pages_written_since(0)), proc.space.soft_dirty_faults,
    )
    # Only the graft epoch did, and fork() carries it over like the rest.
    assert tracker.graft_epoch == 1
    assert proc.space.clone().mapping_at(first).tracker.graft_epoch == 1
    # ... yet the same memo must see the new pointer.
    after = memo.trace(proc)
    assert after is not before
    assert second in after.objects
    assert trace_key(after) == trace_key(GraphBuilder(proc).build())
    assert memo.traces_built == 2 and memo.traces_reused == 0


# -- (a) the oracle, on every server -------------------------------------------------


def _boot_simple():
    world = boot_server("simple")
    ApacheBench(world.port, requests=40, concurrency=2, path="sum").run(world.kernel)
    return world.kernel, world.session, world.root


def _boot_served(name: str, sessions: int = 0):
    """A server after its benchmark workload, with ``sessions`` held open."""
    if name == "simple":
        return _boot_simple()
    spec = SERVER_BENCHES[name]
    world = boot_server(name)
    spec["workload"]().run(world.kernel)
    if sessions:
        holder = ConnectionHolder(spec["port"], sessions, spec["holder_kind"])
        holder.establish(world.kernel)
        assert holder.ready == sessions
    return world.kernel, world.session, world.root


def _boot_httpd_workers(workers: int):
    """httpd with ``workers`` prefork server processes."""
    return boot_server(
        "httpd",
        make_program=lambda version=1: httpd.make_program(version, server_processes=workers),
    )


@pytest.mark.parametrize(
    "name,sessions,most_builds",
    [
        ("httpd", 64, 4), ("nginx", 0, 2), ("vsftpd", 40, 3), ("opensshd", 40, 4),
        ("memcache", 0, 1), ("simple", 0, 1),
    ],
)
def test_memo_trace_equals_fresh_build_on_every_server(name, sessions, most_builds, monkeypatch):
    if name == "httpd":  # its siblings are prefork workers, not held sessions
        world = _boot_httpd_workers(sessions)
        SERVER_BENCHES[name]["workload"]().run(world.kernel)
        root = world.root
    else:
        _kernel, _session, root = _boot_served(name, sessions)
    processes = root.tree()
    assert len(processes) > sessions
    oracle = {p: trace_key(GraphBuilder(p).build()) for p in processes}
    memo = TraceMemo()
    first = {}
    for process in processes:
        got = first[process] = memo.trace(process)
        # Built or shared, it is this process's own trace, and pristine —
        # although every trace handed out before it has already had the
        # invariants applied, as the sweeps do.
        assert trace_key(got) == oracle[process], process.name
        assert_own(got, process)
        apply_invariants(got)
    owners: Dict[int, object] = {}
    for process, trace in first.items():
        for record in trace.objects.values():
            assert owners.setdefault(id(record), process) is process, record
    assert memo.traces_built + memo.traces_shared == len(processes)
    assert memo.traces_built <= most_builds and memo.replays_failed <= sessions
    builds = CallCounter(monkeypatch, GraphBuilder, "build")
    scans = CallCounter(monkeypatch, conservative, "scan_range")
    for process in processes:
        assert memo.trace(process) is first[process]
    assert builds.calls == 0 and scans.calls == 0
    assert memo.traces_reused == len(processes)
    # Applying the invariants (what both sweeps do) is idempotent, so the
    # memoized object reads the same to the second sweep as a fresh one would.
    for process in processes:
        again = apply_invariants(memo.trace(process))
        assert trace_key(again) == trace_key(apply_invariants(GraphBuilder(process).build()))


# -- (b) the invalidation matrix --------------------------------------------------------

MMAP_AT = 0x6000_0000


class _MutableWorld:
    """A small process with one of everything a trace reads, plus the
    mutations that can change each — applied by index from hypothesis."""

    def __init__(self) -> None:
        program = make_test_program(
            [
                GlobalVar("head", PointerType(NODE, name="node*")),
                GlobalVar("blob", PointerType(None, name="void*")),
                GlobalVar("far", PointerType(NODE, name="node*")),
                GlobalVar("count", INT64),
            ],
            types={"node": NODE},
        )
        self.kernel, _session, self.proc = boot_test_program(program)
        proc = self.proc
        self.crt, self.thread = proc.crt, proc.threads[1]
        self.nodes = [self.crt.malloc_typed(self.thread, NODE) for _ in range(3)]
        self.crt.set(self.nodes[0], NODE, "next", self.nodes[1])
        self.crt.gset("head", self.nodes[0])
        self.raw = self.crt.malloc(64)
        self.crt.gset("blob", self.raw)
        proc.space.write_word(self.raw + 8, self.nodes[2])
        # A tagged node in an mmap'd area, reachable from a global.
        proc.space.map(PAGE_SIZE, address=MMAP_AT, name="arena", kind="mmap")
        proc.tags.register(MMAP_AT, NODE, origin="heap", name="arena_node")
        proc.space.write_word(MMAP_AT + NEXT, self.nodes[2])
        self.crt.gset("far", MMAP_AT)
        self.rooted = self.crt.malloc_typed(self.thread, NODE)
        self.extra_allocs: list = []
        self._hold_on_a_second_stack()

    def _hold_on_a_second_stack(self) -> None:
        """A second thread whose stack variable roots an otherwise
        unreachable allocation; fresh policy objects."""
        self.extra = self.kernel._start_thread(self.proc, idle_main, (), "extra")
        slot = self.crt.stack_alloc(self.extra, "held", PointerType(NODE, name="node*"))
        self.proc.space.write_word(slot, self.rooted)
        self.config = MCRConfig()
        self.annotations = Annotations()

    def fork(self, name: str) -> "_MutableWorld":
        """A forked sibling: same layout and bytes, its own everything."""
        twin = object.__new__(_MutableWorld)
        twin.kernel = self.kernel
        twin.proc = self.kernel.do_fork(self.thread, idle_main, (), name)
        twin.crt, twin.thread = twin.proc.crt, twin.proc.threads[1]
        twin.nodes, twin.raw, twin.rooted = self.nodes, self.raw, self.rooted
        twin.extra_allocs = list(self.extra_allocs)
        twin._hold_on_a_second_stack()  # fork() carries over the calling thread only
        return twin

    def trace(self, memo: TraceMemo) -> TraceResult:
        return memo.trace(self.proc, self.config, self.annotations)

    def fresh(self) -> TraceResult:
        return GraphBuilder(self.proc, self.config, annotations=self.annotations).build()

    def words(self) -> list:
        """Values worth planting: null, bases, interiors, junk."""
        return [0, self.nodes[1], self.nodes[2], self.nodes[2] + 4, self.raw + 16, 0xDEAD_BEEF_0001]

    def apply(self, op: int, a: int, b: int) -> None:
        proc, crt = self.proc, self.crt
        words = self.words()
        if op == 0:  # a program write into a pointer slot
            node = self.nodes[a % len(self.nodes)]
            proc.space.write_word(node + NEXT, words[b % len(words)])
        elif op == 1:  # ... into opaque bytes
            proc.space.write_word(self.raw + (a % 8) * 8, words[b % len(words)])
        elif op == 2:  # malloc (untagged or typed)
            if a % 2:
                self.extra_allocs.append(crt.malloc((16, 48, 160)[b % 3]))
            else:
                self.extra_allocs.append(crt.malloc_typed(self.thread, NODE))
        elif op == 3:  # free
            if self.extra_allocs:
                address = self.extra_allocs.pop(a % len(self.extra_allocs))
                proc.tags.unregister(address)
                proc.heap.free(address)
        elif op == 4:  # tag register / unregister on the opaque buffer
            if proc.tags.lookup(self.raw) is None:
                proc.tags.register(self.raw, (INT64, NODE)[a % 2], origin="heap")
            else:
                proc.tags.unregister(self.raw)
        elif op == 5:  # munmap + mmap at the same address: fresh, zero bytes
            unmap(proc.space, MMAP_AT)
            proc.space.map(PAGE_SIZE, address=MMAP_AT, name="arena", kind="mmap")
            if a % 2:  # same number of writes as the mapping it replaced
                proc.space.write_word(MMAP_AT + NEXT, words[b % len(words)])
        elif op == 6:  # a new mapping elsewhere
            proc.space.map(PAGE_SIZE, name="anon", kind="mmap")
        elif op == 7:  # a new stack overlay variable
            slot = crt.stack_alloc(self.thread, f"local{a}", PointerType(NODE, name="node*"))
            proc.space.write_word(slot, self.nodes[b % len(self.nodes)])
        elif op == 8:  # thread exit: its stack stops being a root
            self.kernel._retire_thread(self.extra)
        elif op == 9:  # the three config fields the walk reads
            field = ("transfer_shared_libs", "scan_opaque_int64", "interior_only_nonupdatable")[a % 3]
            setattr(self.config, field, not getattr(self.config, field))
        elif op == 10:  # annotations: force-opaque, encoded pointer
            name = ("head", "blob", "count")[b % 3]
            if a % 2:
                self.annotations.opaque_overrides.add(name)
            else:
                self.annotations.MCR_ANNOTATE_ENCODED_POINTER(name, tag_bits=0x3)
        elif op == 11:  # a checkpoint graft over a pointer slot
            mapping = proc.space.mapping_at(self.nodes[0])
            slot = self.nodes[a % len(self.nodes)] + NEXT
            value = words[b % len(words)] or self.nodes[1]
            mapping.load(slot - mapping.base, value.to_bytes(8, "little"))
        # op == 12: nothing happens; the next trace may be a hit.


_OP = st.tuples(st.integers(0, 12), st.integers(0, 7), st.integers(0, 7))


@given(script=st.lists(_OP, min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_no_mutation_sequence_yields_a_stale_trace(script):
    world = _MutableWorld()
    memo = TraceMemo()
    proc, config, annotations = world.proc, world.config, world.annotations
    memo.trace(proc, config, annotations)
    for op, a, b in script:
        world.apply(op, a, b)
        got = memo.trace(proc, config, annotations)
        want = GraphBuilder(proc, config, annotations=annotations).build()
        assert trace_key(got) == trace_key(want), (op, a, b)


@pytest.mark.parametrize("op", range(12))
def test_every_mutation_kind_moves_the_stamp(op):
    # The property above allows a miss anywhere; this pins that each
    # mutation kind is one the stamp actually sees (no accidental hits
    # because an op silently did nothing), and that doing nothing is a hit.
    world = _MutableWorld()
    world.extra_allocs.append(world.crt.malloc(32))
    stamp = lambda: trace_stamp(world.proc, world.config, world.annotations)
    before = stamp()
    assert stamp() == before
    world.apply(op, 1, 1)
    assert stamp() != before


def test_unchanged_process_is_a_hit_and_other_annotations_are_not():
    world = _MutableWorld()
    memo = TraceMemo()
    first = memo.trace(world.proc, world.config, world.annotations)
    assert memo.trace(world.proc, world.config, world.annotations) is first
    # Analysis traces under v1's annotations, transfer under v2's: equal
    # tables share the trace, different tables do not.
    same, other = Annotations(), Annotations()
    other.opaque_overrides.add("head")
    assert memo.trace(world.proc, world.config, same) is first
    assert memo.trace(world.proc, world.config, other) is not first
    assert (memo.traces_built, memo.traces_reused) == (2, 2)


# -- (b') forked siblings: one walk by transcript, never a stale one --------------------------


def _check_siblings(memo: TraceMemo, siblings: List[_MutableWorld]) -> None:
    """Every answer ≡ a fresh build, before and after the invariants a
    sweep applies to it (a stamp hit is the object an earlier sweep
    already applied them to; anything else must arrive pristine)."""
    for sibling in siblings:
        reused = memo.traces_reused
        got = sibling.trace(memo)
        assert_own(got, sibling.proc)
        if memo.traces_reused == reused:
            assert trace_key(got) == trace_key(sibling.fresh()), sibling.proc.name
        assert trace_key(apply_invariants(got)) == trace_key(apply_invariants(sibling.fresh()))


@given(
    scripts=st.lists(st.lists(_OP, max_size=4), min_size=3, max_size=4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_no_sibling_is_handed_a_stale_trace(scripts, seed):
    # Forked siblings, each mutated by its own script (the empty script and
    # op 12 are the no-op), traced through one memo in a shuffled order —
    # twice, with each sibling taking one more step in between, so a
    # transcript recorded in the first sweep is replayed against a sibling
    # that has moved on.  A built trace is always allowed, a stale one never.
    world = _MutableWorld()
    siblings = [world.fork(f"sibling-{i}") for i in range(len(scripts))]
    for sibling, script in zip(siblings, scripts):
        for op, a, b in script:
            sibling.apply(op, a, b)
    memo = TraceMemo()
    shuffle = random.Random(seed).shuffle
    for _sweep in range(2):
        shuffle(siblings)
        _check_siblings(memo, siblings)
        for sibling, script in zip(siblings, scripts):
            for op, a, b in script[:1]:
                sibling.apply(op, b, a)
    _check_siblings(memo, siblings)


def test_two_traces_under_one_key_interleave():
    # A/B/A/B: the siblings differ in one pointer slot only — same key,
    # two transcripts — and each finds its own among the recorded ones.
    world = _MutableWorld()
    siblings = [world.fork(f"sibling-{i}") for i in range(4)]
    for sibling in siblings[1::2]:
        sibling.proc.space.write_word(sibling.nodes[0] + NEXT, sibling.nodes[2])
    keys = {sibling_key(s.proc, s.config, s.annotations) for s in siblings}
    assert len(keys) == 1
    memo = TraceMemo()
    _check_siblings(memo, siblings)
    assert (memo.traces_built, memo.traces_shared, memo.replays_failed) == (2, 2, 2)
    assert trace_shape(siblings[0].fresh()) != trace_shape(siblings[1].fresh())
    assert trace_shape(siblings[0].fresh()) == trace_shape(siblings[2].fresh())


def test_a_miss_costs_a_bounded_number_of_replays():
    # Every sibling its own trace under one key: no more than
    # TRANSCRIPTS_PER_KEY are kept, so no trace() replays more than that.
    world = _MutableWorld()
    world.extra_allocs = [world.crt.malloc_typed(world.thread, NODE) for _ in range(8)]
    siblings = [world.fork(f"sibling-{i}") for i in range(8)]
    for sibling, target in zip(siblings, world.extra_allocs):
        sibling.proc.space.write_word(sibling.nodes[1] + NEXT, target)
    memo = TraceMemo()
    _check_siblings(memo, siblings)
    assert (memo.traces_built, memo.traces_shared) == (8, 0)
    kept = TRANSCRIPTS_PER_KEY
    assert memo.replays_failed == sum(min(i, kept) for i in range(8))
    assert [len(recorded) for recorded in memo._transcripts.values()] == [kept]


def test_a_walk_over_a_range_no_single_mapping_backs_is_not_shared():
    # An opaque object laid across two adjacent mappings: the scanner reads
    # it word by word with its own fault semantics, so the memo neither
    # memoizes that scan nor records that walk — every sibling is walked.
    world = _MutableWorld()
    proc = world.proc
    second_page = proc.space.map(PAGE_SIZE, address=MMAP_AT + PAGE_SIZE, name="arena2", kind="mmap")
    straddler = second_page.base - 32
    proc.tags.register(straddler, OpaqueType(64), origin="heap", name="straddler")
    proc.space.write_word(second_page.base, world.nodes[1])
    proc.space.write_word(world.raw + 24, straddler)
    siblings = [world.fork(f"sibling-{i}") for i in range(3)]
    memo = TraceMemo()
    _check_siblings(memo, siblings)
    assert (memo.traces_built, memo.traces_shared, memo.replays_failed) == (3, 0, 0)
    assert not any(memo._transcripts.values())
    likely = [(p.slot_address, p.target_base) for p in siblings[0].fresh().likely_pointers]
    assert (second_page.base, world.nodes[1]) in likely  # ... and it really was scanned


@pytest.mark.parametrize(
    "offset,word,shares",
    [
        (24, lambda w: 0x0123_4567_89AB_CDEF, True),   # resolves to nothing
        (8, lambda w: 0, True),                        # ... nor does a null, over a pointer
        (24, lambda w: w.nodes[1], False),             # a base pointer
        (24, lambda w: w.nodes[1] + 8, False),         # an interior pointer
        (24, lambda w: w.nodes[2], False),             # a second pointer to a known target
    ],
    ids=["junk", "null", "base", "interior", "known-target"],
)
def test_siblings_share_on_equal_answers_not_equal_bytes(offset, word, shares, scan_index_class):
    # Sharing both ways: what differs between the siblings is one word of
    # a conservatively scanned buffer.  If the scanner classifies it as a
    # non-pointer both walks are the same walk; if it resolves they are not.
    world = _MutableWorld()
    first, second = world.fork("first"), world.fork("second")
    first.proc.space.write_word(first.raw + offset, 0x7777_7777_7777_7777)
    second.proc.space.write_word(second.raw + offset, word(second))
    for order in ([first, second], [second, first]):
        memo = TraceMemo()
        _check_siblings(memo, order)
        assert memo.traces_shared == (1 if shares else 0)
        assert memo.traces_built == (1 if shares else 2)
    assert (trace_shape(first.fresh()) == trace_shape(second.fresh())) == shares


# -- (d) ablation: every key part and every question kind is load-bearing --------------------
#
# Each case is two forked siblings that differ in exactly one thing the
# walk reads, and the sibling key (or the replay) with exactly that thing
# left out.  With the real key the memo is exact; ablated, it hands the
# second sibling the first one's trace.  docs/performance.md records which
# parts need a targeted case (the mutation property does not reach them).

KEY_TAGS, KEY_CHUNKS, KEY_RESERVED, KEY_SYMBOLS, KEY_MAPPINGS, KEY_ROOTS, KEY_POLICY = range(7)


def _drop_part(part: int) -> Callable:
    return lambda key: key[:part] + (None,) + key[part + 1:]


def _drop_column(part: int, column: int) -> Callable:
    """Leave one field out of every row of a row-structured key part."""
    def drop(key):
        rows = tuple(row[:column] + row[column + 1:] for row in key[part])
        return key[:part] + (rows,) + key[part + 1:]

    return drop


def _drop_policy(field: int) -> Callable:
    def drop(key):
        policy = key[KEY_POLICY]
        return key[:KEY_POLICY] + (policy[:field] + (None,) + policy[field + 1:],)

    return drop


def _drop_annotation_table(table: int) -> Callable:
    def drop(key):
        policy = key[KEY_POLICY]
        tables = policy[3][:table] + (None,) + policy[3][table + 1:]
        return key[:KEY_POLICY] + (policy[:3] + (tables,),)

    return drop


def _tag_raw(**changed) -> Callable:
    """Both siblings tag the opaque buffer; the second one differently."""
    def scenario(first, second):
        for sibling, extra in ((first, {}), (second, changed)):
            fields = {"type_": NODE, "site": "site-a", "name": "name-a", **extra}
            sibling.proc.tags.register(sibling.raw, origin="heap", **fields)

    return scenario


def _chunk_sizes(first, second):
    # The PR 19 case: one address, 64 bytes here and 128 there, and a word
    # pointing 100 bytes in.
    chunk = first.proc.heap.malloc(64)
    assert second.proc.heap.malloc(128) == chunk
    for sibling in (first, second):
        sibling.proc.space.write_word(sibling.raw + 24, chunk + 100)


def _chunk_flag(flag: str, value) -> Callable:
    def scenario(first, second):
        # Chunks are written once and shared across fork: the second
        # sibling gets a replacement in its own table.
        heap = second.proc.heap
        chunk = heap.find_chunk(second.raw)
        heap._chunks[chunk.user_base] = chunk._replace(**{flag: value})

    return scenario


def _reserved_span(first, second):
    span = first.proc.heap.malloc(256)
    assert second.proc.heap.malloc(256) == span
    for sibling in (first, second):
        sibling.proc.heap.free(span)
        sibling.proc.space.write_word(sibling.raw + 24, span + 32)
    second.proc.heap.reserve_range(span - 32, 512)


def _fewer_symbols(first, second):
    table = SymbolTable()
    for symbol in second.proc.symbols:
        if symbol.name != "far":
            table.add(symbol)
    second.proc.symbols = table


def _arena_is_a_library(first, second):
    second.proc.space.mapping_at(MMAP_AT).kind = "lib"


def _forged_root(first, second):
    unreachable = first.crt.malloc_typed(first.thread, NODE)
    assert second.crt.malloc_typed(second.thread, NODE) == unreachable
    second.crt._stacks[second.extra.tid].overlay.append(("forged", unreachable, NODE))


def _config(field: str) -> Callable:
    def scenario(first, second):
        for sibling in (first, second):
            # A library object, a base likely pointer and a pointer-sized
            # integer that resolves: something for each policy field to decide.
            sibling.proc.space.mapping_at(MMAP_AT).kind = "lib"
            sibling.crt.gset("count", sibling.nodes[1])
        setattr(second.config, field, not getattr(second.config, field))

    return scenario


def _encoded_count(first, second):
    for sibling in (first, second):
        sibling.crt.gset("count", sibling.nodes[1] | 1)
    second.annotations.MCR_ANNOTATE_ENCODED_POINTER("count", tag_bits=0x3)


def _opaque_head(first, second):
    second.annotations.opaque_overrides.add("head")


def _other_next(first, second):
    second.proc.space.write_word(second.nodes[0] + NEXT, second.nodes[2])


def _other_buffer_word(first, second):
    second.proc.space.write_word(second.raw + 24, second.nodes[1] + 8)


def _other_count(first, second):
    second.crt.gset("count", second.nodes[1])


def _skip_questions(kind: str, monkeypatch) -> None:
    """Replay as if the walk had never asked ``kind`` questions."""
    build = GraphBuilder.build

    def forgetful_build(self):
        result = build(self)
        self.transcript[:] = [asked for asked in self.transcript if asked[0] != kind]
        return result

    monkeypatch.setattr(GraphBuilder, "build", forgetful_build)


ABLATIONS = {
    "tags": (_drop_part(KEY_TAGS), _tag_raw(type_=INT64)),
    "tag-type": (_drop_column(KEY_TAGS, 1), _tag_raw(type_=INT64)),
    "tag-site": (_drop_column(KEY_TAGS, 2), _tag_raw(site="site-b")),
    "tag-name": (_drop_column(KEY_TAGS, 3), _tag_raw(name="name-b")),
    "chunks": (_drop_part(KEY_CHUNKS), _chunk_sizes),
    "chunk-size": (_drop_column(KEY_CHUNKS, 1), _chunk_sizes),
    "chunk-startup": (_drop_column(KEY_CHUNKS, 2), _chunk_flag("startup", True)),
    "chunk-site-id": (_drop_column(KEY_CHUNKS, 3), _chunk_flag("site_id", 4242)),
    "reserved": (_drop_part(KEY_RESERVED), _reserved_span),
    "symbols": (_drop_part(KEY_SYMBOLS), _fewer_symbols),
    "mapping-kind": (_drop_column(KEY_MAPPINGS, 2), _arena_is_a_library),
    "roots": (_drop_part(KEY_ROOTS), _forged_root),
    "transfer_shared_libs": (_drop_policy(0), _config("transfer_shared_libs")),
    "scan_opaque_int64": (_drop_policy(1), _config("scan_opaque_int64")),
    "interior_only_nonupdatable": (_drop_policy(2), _config("interior_only_nonupdatable")),
    "encoded_pointers": (_drop_annotation_table(0), _encoded_count),
    "opaque_overrides": (_drop_annotation_table(1), _opaque_head),
    "ask-word": (graph.ASKED_WORD, _other_next),
    "ask-range": (graph.ASKED_RANGE, _other_buffer_word),
    "ask-words": (graph.ASKED_WORDS, _other_count),
}


@pytest.mark.parametrize("case", ABLATIONS)
def test_every_key_part_and_question_kind_is_load_bearing(case, monkeypatch):
    ablation, scenario = ABLATIONS[case]
    world = _MutableWorld()
    first, second = world.fork("first"), world.fork("second")
    scenario(first, second)
    assert trace_shape(first.fresh()) != trace_shape(second.fresh())  # the case discriminates
    for order in ([first, second], [second, first]):
        _check_siblings(TraceMemo(), order)
    # ... and with that one thing left out, the second is handed the first's.
    if isinstance(ablation, str):
        _skip_questions(ablation, monkeypatch)
    else:
        real_key = incremental.sibling_key
        monkeypatch.setattr(
            incremental, "sibling_key", lambda *args: ablation(real_key(*args))
        )
    memo = TraceMemo()
    first.trace(memo)
    assert trace_key(second.trace(memo)) != trace_key(second.fresh())
    assert memo.traces_shared == 1


# -- (c) clock-free cost guards -------------------------------------------------------------

# Conservative scans one whole-tree vsftpd update with 40 held sessions
# may run.  Today: 557 of the 10 658 windows asked for — the rest are
# memo hits on byte-identical windows under identical layouts; before the
# memo, offline analysis scanned all 10 658.
VSFTPD40_SCAN_CEILING = 600


@pytest.mark.parametrize(
    "name,most_builds,most_visits", [("vsftpd", 3, 800), ("opensshd", 4, 1_200)]
)
def test_whole_tree_update_walks_each_distinct_process_once(
    name, most_builds, most_visits, scan_index_class, monkeypatch
):
    kernel, session, root = _boot_served(name, sessions=40)
    processes = len(root.tree())
    assert processes == 41
    builds = CallCounter(monkeypatch, GraphBuilder, "build")
    scans = CallCounter(monkeypatch, conservative, "scan_range")
    precise_visits = CallCounter(monkeypatch, precise, "pointer_slots")
    with obs.collecting(kernel.clock) as collector:
        result = McrCtl(kernel, session).live_update(SERVER_BENCHES[name]["make_program"](2))
    assert result.committed, result.error
    # One walk per distinct process (vsftpd: the listener and one session;
    # 41 before siblings shared by transcript, 82 before the memo), and
    # the per-object visits that go with them (523 + 788 on the two
    # servers; 21 523 before).
    assert 0 < builds.calls <= most_builds
    assert 0 < precise_visits.calls <= most_visits
    counters = collector.counters.snapshot()
    assert counters["trace.memo_misses"] == builds.calls
    assert counters["trace.memo_shared"] == processes - builds.calls
    assert counters["trace.memo_hits"] == processes
    if name == "vsftpd":
        assert 0 < scans.calls <= VSFTPD40_SCAN_CEILING
    # Billing.  Every word of every trace is published once: ``scan.words``
    # where it was classified (a build, or a replay whose bytes differed),
    # ``scan.words_from_cache`` where its answer was already known (a memo
    # hit in a build, equal bytes in a replay).  A replay that gave up has
    # published what it asked before the walk asks again, and says so.
    traces = result.transfer_report.trace_results
    assert len(traces) == processes
    classified_or_reused = counters["scan.words"] + counters["scan.words_from_cache"]
    assert classified_or_reused == (
        sum(trace.words_scanned for trace in traces.values())
        + counters.get("scan.words_in_failed_replays", 0)
    )
    # ... and the cost model is billed for exactly the traces' words,
    # built, shared or reused.
    assert counters["transfer.words_scanned"] == sum(t.words_scanned for t in traces.values())
    assert counters.get("trace.memo_replays_failed", 0) == 0  # none on these two servers


def test_rolling_update_retraces_only_workers_that_served(monkeypatch):
    workers = 64
    world = _boot_httpd_workers(workers)
    kernel = world.kernel
    workload = ApacheBench(80, requests=24, concurrency=4, reconnect_stall_ns=100_000_000)
    clients = workload(kernel)
    kernel.run(until=lambda: workload.latency.count >= 8, max_steps=4_000_000)
    old = world.root.tree()
    builds = CallCounter(monkeypatch, GraphBuilder, "build")
    # What each process had written whenever its trace was asked for.
    writes_seen: Dict[object, list] = {}
    original_trace = TraceMemo.trace

    def recording_trace(self, process, *args, **kwargs):
        writes_seen.setdefault(process, []).append(
            tuple(m.tracker.write_seq for m in process.space.mappings())
        )
        return original_trace(self, process, *args, **kwargs)

    monkeypatch.setattr(TraceMemo, "trace", recording_trace)
    result = McrCtl(kernel, world.session).live_update(
        httpd.make_program(2, server_processes=workers),
        config=MCRConfig(update_mode="rolling", rolling_batch=workers // 4),
    )
    assert result.committed, result.error
    assert result.rolling_batches >= 4
    # Rolling quiesces one batch at a time, so a worker still serving when
    # analysis traced it may write before its own batch parks: those are
    # asked about again (and may be walked again); of the rest, only the
    # distinct ones were ever walked — the 64 workers are one.
    assert set(writes_seen) == set(old) and all(len(seen) == 2 for seen in writes_seen.values())
    served_between = [p for p, (analysis, transfer) in writes_seen.items() if analysis != transfer]
    assert len(served_between) <= workload.concurrency
    assert builds.calls <= 4 + len(served_between)  # len(old) + ... before siblings shared
    kernel.run(until=lambda: all(c.exited for c in clients), max_steps=6_000_000)
    assert workload.completed == 24 and workload.errors == 0


def test_memo_dies_with_the_update_so_a_retry_retraces(monkeypatch):
    kernel, session, root = _boot_served("vsftpd", sessions=4)
    processes = len(root.tree())
    ctl = McrCtl(kernel, session)
    builds = CallCounter(monkeypatch, GraphBuilder, "build")
    memos = []
    original_init = TraceMemo.__init__
    monkeypatch.setattr(
        TraceMemo, "__init__", lambda self: (memos.append(self), original_init(self))[1]
    )
    failed = ctl.live_update(
        SERVER_BENCHES["vsftpd"]["make_program"](2),
        config=MCRConfig(faults=FaultPlan().at("transfer.memory")),
    )
    assert failed.rolled_back and failed.rollback_verified
    distinct = 2  # the listener and one session; the other sessions share its walk
    assert builds.calls == distinct
    # Nothing of the rolled-back attempt is reachable from a later one: the
    # retry starts from an empty memo — no stamp, no transcript, no scan —
    # and walks every distinct process again.
    retried = ctl.live_update(SERVER_BENCHES["vsftpd"]["make_program"](2))
    assert retried.committed, retried.error
    assert builds.calls == 2 * distinct
    owners = [memo for memo in memos if memo.traces_built]
    assert [(memo.traces_built, memo.traces_shared) for memo in owners] == [
        (distinct, processes - distinct)
    ] * 2
    assert owners[0] is not owners[1]
    assert all(not memo._transcripts for memo in memos if memo not in owners)


def test_fault_matrix_still_converges_in_every_cell_in_both_modes():
    # ``tests/test_bench_artifacts.py`` re-runs ``bench faultmatrix --smoke``
    # and holds its output byte-identical to this committed file, so reading
    # the verdicts here pins that with the memo shared between analysis,
    # transfer and rollback every armed cell still ends committed XOR
    # verified-rolled-back — whole-tree and rolling alike.
    artifact = Path(__file__).resolve().parent.parent / "BENCH_faultmatrix.json"
    results = json.loads(artifact.read_text())["results"]
    cells = results["cells"]
    assert {cell["mode"] for cell in cells} == {"whole-tree", "rolling"}
    for cell in cells:
        assert cell["survived"] and cell["raised"] is None, cell
        assert cell["committed"] != cell["rolled_back"], cell
        assert cell["committed"] or cell["rollback_verified"], cell
    checks = faultmatrix.verdicts(results)
    assert checks["all_survived"] and checks["rolling_all_survived"]
    assert checks["failover_all_converged"] and checks["migration_all_converged"]
