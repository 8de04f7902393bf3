"""The update-scoped ``TraceMemo`` against its oracle, ``GraphBuilder.build()``.

A memoized answer is only worth having if it is *the* answer: every test
here compares what the memo hands out with a memo-free build of the same
process, node for node.  Four groups:

* the two defects the exact keys fix — a count-based layout key that let
  forked workers swap likely-pointer lists, and a write-sequence validity
  test blind to checkpoint grafts;
* the oracle on every server, and an invalidation property over random
  mutation sequences (a miss is always allowed, a stale hit never);
* clock-free cost guards: how many graph walks and conservative scans one
  update runs, pinned by count;
* ``DirtyFilter``'s classify-once body against the body it replaced.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench.harness import SERVER_BENCHES, boot_server
from repro.kernel.kernel import Kernel
from repro.mcr.annotations import Annotations
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan
from repro.mcr.tracing import conservative
from repro.mcr.tracing.dirty import DirtyFilter
from repro.mcr.tracing.graph import GraphBuilder, ObjectRecord, PointerSlot, TraceResult
from repro.mcr.tracing.incremental import TraceMemo, trace_stamp
from repro.mcr.tracing.invariants import apply_invariants
from repro.mcr.tracing.transfer import ProcessTransferStats
from repro.mem import scan_backend
from repro.mem.pages import PAGE_SIZE
from repro.runtime.instrument import BuildConfig
from repro.runtime.libmcr import MCRSession
from repro.runtime.program import GlobalVar, load_program
from repro.servers import httpd, simple
from repro.types.descriptors import INT32, INT64, PointerType, StructType
from repro.workloads.ab import ApacheBench
from repro.workloads.holders import ConnectionHolder

from tests.helpers import (
    INDEX_CLASSES,
    CallCounter,
    boot_test_program,
    idle_main,
    make_test_program,
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


@pytest.fixture(params=INDEX_CLASSES, ids=lambda cls: cls.name)
def scan_index_class(request, monkeypatch):
    """Run the test once per scan backend this interpreter has."""
    monkeypatch.setattr(scan_backend, "ACTIVE", request.param)
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

    for order in ((small, large), (large, small)):
        memo = TraceMemo()
        for worker in order:
            got = memo.trace(worker)
            want = GraphBuilder(worker).build()
            assert trace_key(got) == trace_key(want), worker.name
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
    kernel = Kernel()
    simple.setup_world(kernel)
    program = simple.make_program(1)
    session = MCRSession(kernel, program, BuildConfig.full())
    root = load_program(kernel, program, build=BuildConfig.full(), session=session)
    kernel.run(until=lambda: session.startup_complete, max_steps=400_000)
    ApacheBench(8080, requests=40, concurrency=2, path="sum").run(kernel)
    return kernel, session, root


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


@pytest.mark.parametrize(
    "name,sessions",
    [("httpd", 0), ("nginx", 0), ("vsftpd", 40), ("opensshd", 0), ("memcache", 0), ("simple", 0)],
)
def test_memo_trace_equals_fresh_build_on_every_server(name, sessions, monkeypatch):
    _kernel, _session, root = _boot_served(name, sessions)
    processes = root.tree()
    assert len(processes) > sessions
    oracle = {p: trace_key(GraphBuilder(p).build()) for p in processes}
    memo = TraceMemo()
    first = {p: memo.trace(p) for p in processes}
    for process in processes:
        assert trace_key(first[process]) == oracle[process], process.name
    builds = CallCounter(monkeypatch, GraphBuilder, "build")
    scans = CallCounter(monkeypatch, conservative, "scan_range")
    for process in processes:
        assert memo.trace(process) is first[process]
    assert builds.calls == 0 and scans.calls == 0
    assert memo.traces_built == memo.traces_reused == len(processes)
    # Applying the invariants (what both sweeps do) is idempotent, so the
    # shared object reads the same to the second sweep as a fresh one would.
    for process in processes:
        shared = apply_invariants(apply_invariants(memo.trace(process)))
        assert trace_key(shared) == trace_key(apply_invariants(GraphBuilder(process).build()))


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
        # A second thread whose stack variable roots an otherwise
        # unreachable allocation.
        self.extra = self.kernel._start_thread(proc, idle_main, (), "extra")
        rooted = self.crt.malloc_typed(self.thread, NODE)
        slot = self.crt.stack_alloc(self.extra, "held", PointerType(NODE, name="node*"))
        proc.space.write_word(slot, rooted)
        self.extra_allocs: list = []
        self.config = MCRConfig()
        self.annotations = Annotations()

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
            proc.space.unmap(MMAP_AT)
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
                self.annotations.MCR_FORCE_OPAQUE(name)
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
    other.MCR_FORCE_OPAQUE("head")
    assert memo.trace(world.proc, world.config, same) is first
    assert memo.trace(world.proc, world.config, other) is not first
    assert (memo.traces_built, memo.traces_reused) == (2, 2)


# -- (c) clock-free cost guards -------------------------------------------------------------

# Conservative scans one whole-tree vsftpd update with 40 held sessions
# may run.  Today: 557 of the 10 658 windows asked for — the rest are
# memo hits on byte-identical windows under identical layouts; before the
# memo, offline analysis scanned all 10 658.
VSFTPD40_SCAN_CEILING = 600


def test_whole_tree_update_walks_each_process_once(scan_index_class, monkeypatch):
    kernel, session, root = _boot_served("vsftpd", sessions=40)
    processes = len(root.tree())
    assert processes == 41
    builds = CallCounter(monkeypatch, GraphBuilder, "build")
    scans = CallCounter(monkeypatch, conservative, "scan_range")
    with obs.collecting(kernel.clock) as collector:
        result = McrCtl(kernel, session).live_update(SERVER_BENCHES["vsftpd"]["make_program"](2))
    assert result.committed, result.error
    assert builds.calls == processes  # 2 * processes before the memo
    assert 0 < scans.calls <= VSFTPD40_SCAN_CEILING
    counters = collector.counters.snapshot()
    assert counters["trace.memo_misses"] == counters["trace.memo_hits"] == processes
    # ``scan.words`` is what was classified; the cost model is billed for
    # every word of every trace, reused or not.
    classified_or_reused = counters["scan.words"] + counters["scan.words_from_cache"]
    assert classified_or_reused == sum(
        trace.words_scanned for trace in result.transfer_report.trace_results.values()
    )
    assert counters["transfer.words_scanned"] == classified_or_reused
    assert len(result.transfer_report.trace_results) == processes


def test_rolling_update_retraces_only_workers_that_served(monkeypatch):
    workers = 64
    world = boot_server(
        "httpd", make_program=lambda version=1: httpd.make_program(version, server_processes=workers)
    )
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
    # traced again, everything else once.
    assert set(writes_seen) == set(old) and all(len(seen) == 2 for seen in writes_seen.values())
    served_between = [p for p, (analysis, transfer) in writes_seen.items() if analysis != transfer]
    assert len(served_between) <= workload.concurrency
    assert builds.calls <= len(old) + len(served_between)
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
    assert builds.calls == processes
    # Nothing of the rolled-back attempt is reachable from a later one:
    # the retry starts from an empty memo and walks every process again.
    retried = ctl.live_update(SERVER_BENCHES["vsftpd"]["make_program"](2))
    assert retried.committed, retried.error
    assert builds.calls == 2 * processes
    owners = [memo for memo in memos if memo.traces_built]
    assert [memo.traces_built for memo in owners] == [processes, processes]
    assert owners[0] is not owners[1]


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
    assert results["all_survived"] and results["rolling_all_survived"]
    assert results["failover_all_converged"] and results["migration_all_converged"]


# -- DirtyFilter: classify once, same numbers ------------------------------------------------


class TwiceClassifyingFilter(DirtyFilter):
    """``DirtyFilter.is_dirty`` as it was: stateless, re-read on every ask."""

    def is_dirty(self, record: ObjectRecord) -> bool:
        size = max(record.size, 1)
        self.pages_scanned += (size + 4095) // 4096
        return self.process.space.range_dirty(record.base, size)


def _transfer_numbers(filter_class, old_proc, trace) -> Tuple:
    dirty_filter = filter_class(old_proc)
    reduction = dirty_filter.reduction_stats(trace)
    pages_after_stats = dirty_filter.pages_scanned
    verdicts = [dirty_filter.is_dirty(record) for record in trace.objects.values()]
    return reduction, pages_after_stats, verdicts


@pytest.mark.parametrize("name", ["httpd", "nginx", "vsftpd", "opensshd", "memcache"])
def test_dirty_filter_classifies_once_with_identical_results(name, monkeypatch):
    kernel, session, root = _boot_served(name, sessions=4 if name in ("vsftpd", "opensshd") else 0)
    for process in root.tree():
        trace = apply_invariants(GraphBuilder(process).build())
        assert _transfer_numbers(DirtyFilter, process, trace) == _transfer_numbers(
            TwiceClassifyingFilter, process, trace
        )
        # One soft-dirty read per record, not two.
        reads = CallCounter(monkeypatch, type(process.space), "range_dirty")
        _transfer_numbers(DirtyFilter, process, trace)
        assert reads.calls == len(trace.objects)
        monkeypatch.undo()

    # End to end: every ProcessTransferStats field of a real update equals
    # what the old filter body produces for the same update.
    def update_stats(filter_class):
        k, s, _root = _boot_served(name, sessions=4 if name in ("vsftpd", "opensshd") else 0)
        monkeypatch.setattr("repro.mcr.tracing.transfer.DirtyFilter", filter_class)
        result = McrCtl(k, s).live_update(SERVER_BENCHES[name]["make_program"](2))
        monkeypatch.undo()
        assert result.committed, result.error
        fields = vars(ProcessTransferStats(0)).keys()
        return (
            [tuple(getattr(stats, f) for f in fields) for stats in result.transfer_report.per_process],
            result.transfer_report.total_ns,
            result.total_ns,
        )

    assert update_stats(DirtyFilter) == update_stats(TwiceClassifyingFilter)
