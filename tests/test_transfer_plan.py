"""State transfer against the bodies it replaced.

State transfer pairs once per layout (``_PairingPlan``), selects from the
trackers' dirty pages, moves unchanged types by their span program and
runs on tags and chunks that ``fork`` shares.  Each of those replaced a
per-process, per-object body, and the replaced bodies are kept here,
verbatim, as the oracle:

* (a) ``EagerStateTransfer`` — the per-process pairing loop, the caching
  per-object ``DirtyFilter`` and the always-decoding ``_transfer_object``
  — against the real one on every server, whole-tree and rolling, with the
  dirty filter on and off: every ``ProcessTransferStats`` field, the
  ordered writes / ``malloc``s / ``register``s on each new process, the
  report totals and the resulting tree;
* (b) the span program against the decoded codec path on random types;
* (c) forked siblings that each went their own way after ``fork``, under
  shared plans, in any order — each equals its own eager transfer;
* (d) clock-free count guards on a 40-session update;
* (e) ``fork`` shares tags and chunks and isolates the tables.
"""

from __future__ import annotations

import copy
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench.harness import boot_server
from repro.checkpoint.image import _process_record
from repro.checkpoint.restore import _graft_heap
from repro.errors import ConflictError
from repro.kernel import Kernel
from repro.kernel.process import Process
from repro.mcr import controller
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import TreeFingerprint, fire
from repro.mcr.tracing.graph import (
    REGION_DYNAMIC,
    REGION_LIB,
    REGION_STATIC,
    ObjectRecord,
    TraceResult,
)
from repro.mcr.tracing.handlers import TraversalContext
from repro.mcr.tracing.incremental import TraceMemo
from repro.mcr.tracing.invariants import apply_invariants
from repro.mcr.tracing.spans import SpanWriter, move_unchanged
from repro.mcr.tracing.transfer import (
    ProcessTransferStats,
    StateTransfer,
    _AddressIndex,
)
from repro.mcr.tracing.transform import transform_value
from repro.mem.address_space import AddressSpace
from repro.mem.pages import PAGE_SIZE
from repro.mem.ptmalloc import Chunk, PtMallocHeap
from repro.mem.tags import ORIGIN_HEAP, DataTag, TagStore
from repro.runtime.program import GlobalVar
from repro.servers import httpd
from repro.types import codec
from repro.types.descriptors import (
    CHAR,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    VOID_PTR,
    ArrayType,
    FuncType,
    OpaqueType,
    PointerType,
    StructType,
    TypeDesc,
    UnionType,
)

from tests.helpers import CallCounter, boot_test_program, idle_main, make_test_program

# -- the replaced bodies, verbatim (commit 3960abf) -----------------------------------------------


class EagerDirtyFilter:
    """``DirtyFilter`` as state transfer used it: one cached verdict per
    record, ``pages_scanned`` charged once per object."""

    def __init__(self, process: Process) -> None:
        self.process = process
        self.pages_scanned = 0
        self._verdicts: Dict[ObjectRecord, bool] = {}

    def is_dirty(self, record: ObjectRecord) -> bool:
        verdict = self._verdicts.get(record)
        if verdict is None:
            size = max(record.size, 1)
            self.pages_scanned += (size + 4095) // 4096
            verdict = self._verdicts[record] = self.process.space.range_dirty(
                record.base, size
            )
        return verdict

    def partition(self, result: TraceResult) -> Tuple[List[ObjectRecord], List[ObjectRecord]]:
        dirty: List[ObjectRecord] = []
        clean: List[ObjectRecord] = []
        for record in result.objects.values():
            (dirty if self.is_dirty(record) else clean).append(record)
        return dirty, clean

    def reduction_stats(self, result: TraceResult) -> Dict[str, float]:
        dirty, clean = self.partition(result)
        dirty = [o for o in dirty if o.region != "lib"]
        clean = [o for o in clean if o.region != "lib"]
        total_bytes = sum(o.size for o in dirty) + sum(o.size for o in clean) or 1
        clean_bytes = sum(o.size for o in clean)
        return {
            "objects_total": len(dirty) + len(clean),
            "objects_dirty": len(dirty),
            "objects_clean": len(clean),
            "bytes_total": total_bytes,
            "bytes_clean": clean_bytes,
            "reduction": clean_bytes / total_bytes,
        }


class EagerStateTransfer(StateTransfer):
    """Pair, filter and decode object by object, process by process."""

    def _transfer_process(self, old_proc: Process, new_proc: Process) -> ProcessTransferStats:
        stats = ProcessTransferStats(old_proc.pid)
        annotations = getattr(self.new_program, "annotations", None)
        trace = apply_invariants(self.memo.trace(old_proc, self.config, annotations))
        self.report.trace_results[old_proc.pid] = trace
        stats.objects_traced = len(trace.objects)
        stats.words_scanned = trace.words_scanned
        dirty_filter = EagerDirtyFilter(old_proc)
        reduction = dirty_filter.reduction_stats(trace)
        stats.pages_scanned = dirty_filter.pages_scanned
        stats.reduction = reduction["reduction"]
        stats.bytes_traced_total = reduction["bytes_total"]
        stats.bytes_clean = reduction["bytes_clean"]
        index = _AddressIndex(sorted(trace.objects), trace.objects)
        # Pass 1: pair every traced object with a new-version address
        # (the filter remembers each verdict ``reduction_stats`` reached).
        addr_map, to_transfer = self._pair_objects(trace, old_proc, new_proc, dirty_filter, stats)

        def translate(old_ptr: int) -> int:
            if old_ptr == 0:
                return 0
            record = index.find(old_ptr)
            if record is None:
                raise ConflictError(
                    "tracing", f"0x{old_ptr:x}", "pointer into untraced memory"
                )
            new_base = addr_map.get(record.base)
            if new_base is None:
                raise ConflictError(
                    "tracing",
                    record.name or f"0x{record.base:x}",
                    "pointer to an object with no new-version counterpart",
                )
            stats.pointers_fixed += 1
            return new_base + (old_ptr - record.base)

        # Pass 2: copy/transform contents.
        for record in to_transfer:
            self._transfer_object(record, addr_map[record.base], old_proc, new_proc, translate, stats)
        return stats

    def _pair_objects(
        self,
        trace: TraceResult,
        old_proc: Process,
        new_proc: Process,
        dirty_filter: "EagerDirtyFilter",
        stats: ProcessTransferStats,
    ) -> Tuple[Dict[int, int], List[ObjectRecord]]:
        addr_map: Dict[int, int] = {}
        to_transfer: List[ObjectRecord] = []
        new_symbols = getattr(new_proc, "symbols", None)
        startup_pool = self._startup_pool(new_proc)
        stack_pool = self._stack_pool(new_proc)
        for record in trace.objects.values():
            dirty = dirty_filter.is_dirty(record) if self.use_dirty_filter else True
            if record.immutable:
                # Identity mapping; contents always refreshed (the new
                # version never re-created these bytes at this address).
                addr_map[record.base] = record.base
                to_transfer.append(record)
                continue
            if record.region == REGION_STATIC and record.name:
                if new_symbols is not None and record.name in new_symbols:
                    symbol = new_symbols.lookup(record.name)
                    addr_map[record.base] = symbol.address
                    if dirty:
                        to_transfer.append(record)
                    else:
                        stats.objects_skipped_clean += 1
                # Deleted globals stay unmapped; a pointer reaching one
                # later raises a conflict (the update dropped live state).
                continue
            if record.region == REGION_DYNAMIC and record.startup:
                counterpart = self._pop_startup_match(startup_pool, record)
                if counterpart is not None:
                    addr_map[record.base] = counterpart
                    if dirty:
                        to_transfer.append(record)
                    else:
                        stats.objects_skipped_clean += 1
                    continue
                # No startup counterpart (the new version no longer
                # allocates it): fall through to fresh reallocation.
            if record.region == REGION_STATIC and not record.name:
                # Stack variable (tracked via overlay metadata).
                counterpart = self._pop_stack_match(stack_pool, record, old_proc)
                if counterpart is not None:
                    addr_map[record.base] = counterpart
                    if dirty:
                        to_transfer.append(record)
                    else:
                        stats.objects_skipped_clean += 1
                continue
            # Mutable dynamic object: reallocate in the new heap with the
            # new version's type.
            new_type = self._new_type_for(record)
            address = new_proc.heap.malloc(new_type.size)
            new_proc.tags.register(address, new_type, ORIGIN_HEAP, site=record.site)
            addr_map[record.base] = address
            to_transfer.append(record)
        return addr_map, to_transfer


    def _transfer_object(
        self,
        record: ObjectRecord,
        new_base: int,
        old_proc: Process,
        new_proc: Process,
        translate,
        stats: ProcessTransferStats,
    ) -> None:
        # Per-object injection points: nth-hit arming picks which object's
        # copy (memory fault) or reallocation (allocator fault) dies.
        fire(self.config, "transfer.memory")
        fire(self.config, "transfer.allocator")
        annotations = getattr(self.new_program, "annotations", None)
        if record.region == REGION_LIB and not self.config.transfer_shared_libs:
            # Library state is reinitialized by the new version itself.
            return
        old_type = record.type
        new_type = self._new_type_for(record)
        type_changed = (
            old_type is not None and old_type.signature() != new_type.signature()
        )
        handler = None
        if annotations is not None:
            handler = annotations.obj_handler_for(
                record.name, old_type.name if old_type else ""
            )
        if record.nonupdatable and type_changed and handler is None:
            conflict = ConflictError(
                "tracing",
                record.name or f"0x{record.base:x}",
                f"type of conservatively-handled object changed "
                f"({old_type.name}); annotation required",
            )
            self.report.conflicts.append(str(conflict))
            raise conflict
        if old_type is None or record.conservatively_traversed:
            if record.gap_ranges is not None:
                # Container block with precisely-traced sub-objects: copy
                # only the untagged gaps; the sub-objects transfer through
                # their own (typed) records.
                for gap_offset, gap_size in record.gap_ranges:
                    data = old_proc.space.read_bytes(record.base + gap_offset, gap_size)
                    new_proc.space.write_bytes(new_base + gap_offset, data)
                    stats.bytes_copied += gap_size
                stats.objects_transferred += 1
                return
            # Verbatim copy: targets of its interior pointers are immutable.
            data = old_proc.space.read_bytes(record.base, record.size)
            if handler is not None:
                context = TraversalContext(record, data, data, translate, old_type, new_type)
                handler.handler(context)
                if context.skip:
                    return
                data = bytes(context.transformed)
            new_proc.space.write_bytes(new_base, data)
            stats.bytes_copied += record.size
            stats.objects_transferred += 1
            return
        if annotations is not None and record.name in annotations.encoded_pointers:
            # Re-encode an annotated tagged pointer: translate the address
            # bits of the leading word, preserve the metadata bits and any
            # trailing buffer content.
            mask = annotations.encoded_pointers[record.name]
            data = bytearray(old_proc.space.read_bytes(record.base, record.size))
            word = int.from_bytes(data[:8], "little")
            address = word & ~mask
            if address:
                word = translate(address) | (word & mask)
            data[:8] = word.to_bytes(8, "little")
            new_proc.space.write_bytes(new_base, bytes(data))
            stats.bytes_copied += record.size
            stats.objects_transferred += 1
            return
        old_value = codec.read_value(old_proc.space, record.base, old_type)
        transformed = transform_value(
            old_type,
            new_type,
            old_value,
            translate,
            subject=record.name or old_type.name,
        )
        if type_changed:
            stats.transforms += 1
        if handler is not None:
            context = TraversalContext(
                record, old_value, transformed, translate, old_type, new_type
            )
            context.old_proc = old_proc
            context.new_proc = new_proc
            handler.handler(context)
            if context.skip:
                return
            transformed = context.transformed
        # Batched emission: the codec's per-leaf-field writes coalesce into
        # contiguous spans, so one object lands in O(spans) real writes.
        writer = SpanWriter(new_proc.space)
        codec.write_value(writer, new_base, new_type, transformed)
        writer.close()
        stats.bytes_copied += new_type.size
        stats.objects_transferred += 1


    def _pop_startup_match(self, pool: Dict[str, List[int]], record: ObjectRecord) -> Optional[int]:
        site = record.tag.site if record.tag is not None else record.site
        addresses = pool.get(site)
        if addresses:
            return addresses.pop(0)
        return None

    def _stack_pool(self, new_proc: Process) -> Dict[Tuple[int, str], int]:
        """New-version stack variables keyed by (thread class, var name)."""
        pool: Dict[Tuple[int, str], int] = {}
        crt = getattr(new_proc, "crt", None)
        if crt is None:
            return pool
        for thread in new_proc.live_threads():
            area = crt._stacks.get(thread.tid)
            if area is None:
                continue
            for name, address, _type in area.overlay:
                pool[(thread.creation_stack_id, name)] = address
        return pool

    def _pop_stack_match(
        self, pool: Dict[Tuple[int, str], int], record: ObjectRecord, old_proc: Process
    ) -> Optional[int]:
        if record.tag is None or not record.tag.name:
            return None
        crt = getattr(old_proc, "crt", None)
        if crt is None:
            return None
        for thread in old_proc.live_threads():
            area = crt._stacks.get(thread.tid)
            if area is None:
                continue
            for name, address, _type in area.overlay:
                if address == record.base:
                    return pool.get((thread.creation_stack_id, name))
        return None



# -- (a) the oracle, on every server ----------------------------------------------------------------


def _shadow(process: Process) -> Process:
    """``process`` with its own copy of everything a transfer writes to."""
    twin = copy.copy(process)
    twin.space = process.space.clone()
    twin.heap = process.heap.clone_into(twin.space)
    twin.tags = process.tags.clone()
    return twin


class _Tape:
    """What a transfer does to one new process, in order: every write
    (chunk headers included), ``malloc`` and ``register``."""

    def __init__(self, process: Process) -> None:
        self.events: List[Tuple] = []
        self._patched = (process.space, "write_bytes"), (process.heap, "malloc"), (process.tags, "register")
        for owner, attr in self._patched:
            setattr(owner, attr, self._recording(attr, getattr(owner, attr)))

    def _recording(self, what: str, call: Callable) -> Callable:
        def recorded(*args, **kwargs):
            self.events.append((what, *(bytes(a) if isinstance(a, (bytes, bytearray)) else a for a in args), kwargs))
            return call(*args, **kwargs)

        return recorded

    def stop(self) -> List[Tuple]:
        for owner, attr in self._patched:
            delattr(owner, attr)  # the instance attribute: the method is back
        return self.events


class _Outcome:
    """One transfer of some pairs, and everything it left behind."""

    def __init__(self, transfer: StateTransfer, pairs: List[Tuple[Process, Process]]) -> None:
        transfer.pair_processes = lambda: pairs
        tapes = [_Tape(new) for _old, new in pairs]
        try:
            self.error: Optional[str] = None
            report = transfer.run()
        except ConflictError as error:
            self.error, report = str(error), transfer.report
        self.tapes = [tape.stop() for tape in tapes]
        self.stats = [vars(stats) for stats in report.per_process]
        self.totals = (report.total_ns, report.conflicts)
        targets = [new for _old, new in pairs]
        self.tree = TreeFingerprint.capture(transfer.old_root.kernel, None, processes_subset=targets)
        self.tables = [(new.tags.table(), new.heap.chunk_table(), list(new.heap._free.intervals())) for new in targets]

    def assert_equals(self, oracle: "_Outcome") -> None:
        assert self.error == oracle.error
        assert self.stats == oracle.stats
        for mine, theirs in zip(self.tapes, oracle.tapes):
            assert mine == theirs
        assert self.totals == oracle.totals
        assert oracle.tree.diff(self.tree) == []
        assert self.tables == oracle.tables


def _like(cls, transfer: StateTransfer, use_dirty_filter: bool) -> StateTransfer:
    return cls(
        transfer.old_root, transfer.new_root, transfer.new_program, transfer.config,
        use_dirty_filter=use_dirty_filter, memo=transfer.memo,
        include_base_cost=transfer.include_base_cost,
    )


class ComparedTransfer(StateTransfer):
    """The update's own transfer, held against the eager one on the way.

    Three rehearsals on copies of the new processes (eager with the filter
    on and off, planned with the setting the update does not use), then
    the real transfer on the real tree.  The plans the rehearsal builds are
    found again for the real processes — by value: they are other objects.
    """

    compared = 0

    def run(self):
        pairs = StateTransfer.pair_processes(self)
        outcomes = {}
        for cls, flag in (
            (EagerStateTransfer, True),
            (EagerStateTransfer, False),
            (StateTransfer, not self.use_dirty_filter),
        ):
            rehearsal = [(old, _shadow(new)) for old, new in pairs]
            outcomes[cls, flag] = _Outcome(_like(cls, self, flag), rehearsal)
        real = _like(StateTransfer, self, self.use_dirty_filter)
        outcomes[StateTransfer, self.use_dirty_filter] = _Outcome(real, pairs)
        for flag in (True, False):
            outcomes[StateTransfer, flag].assert_equals(outcomes[EagerStateTransfer, flag])
        assert real.report.conflicts == [] and len(pairs) == len(real.report.per_process)
        ComparedTransfer.compared += len(pairs)
        self.report = real.report
        return real.report


def _served(name: str, sessions: int = 0, workers: int = 0):
    if workers:
        world = boot_server(
            name, make_program=lambda version=1: httpd.make_program(version, server_processes=workers)
        )
    else:
        world = boot_server(name)
    if world.spec.workload is not None:
        world.spec.small_workload({}).run(world.kernel)
    if sessions:
        holder = world.hold(sessions)
        holder.establish(world.kernel)
        assert holder.ready == sessions
    return world


@pytest.mark.parametrize(
    "name,sessions,workers,mode",
    [
        ("simple", 0, 0, "whole-tree"),
        ("memcache", 0, 0, "whole-tree"),
        ("nginx", 0, 0, "whole-tree"),
        ("nginx_reg", 0, 0, "whole-tree"),
        ("httpd", 0, 0, "whole-tree"),
        ("httpd", 0, 32, "rolling"),
        ("vsftpd", 40, 0, "whole-tree"),
        ("opensshd", 40, 0, "whole-tree"),
    ],
)
def test_planned_transfer_equals_the_eager_one_on_every_server(
    name, sessions, workers, mode, monkeypatch
):
    world = _served(name, sessions, workers)
    processes = len(world.root.tree())
    assert processes > max(sessions, workers)
    monkeypatch.setattr(controller, "StateTransfer", ComparedTransfer)
    monkeypatch.setattr(ComparedTransfer, "compared", 0)
    config = MCRConfig(update_mode="rolling", rolling_batch=8) if mode == "rolling" else None
    result = McrCtl(world.kernel, world.session).live_update(world.make_program(2), config=config)
    assert result.committed, result.error
    assert ComparedTransfer.compared == processes
    if mode == "rolling":
        assert result.rolling_batches >= 4


# -- (b) the span program is the decoded path ------------------------------------------------------

NODE = StructType("node", [("value", INT64), ("next", PointerType(None, name="node*"))])
_LEAVES = [
    INT8, INT16, INT32, INT64, UINT8, UINT16, UINT32, UINT64, CHAR, VOID_PTR,
    PointerType(NODE, name="node*"), FuncType("callback"), PointerType(FuncType("handler")),
    ArrayType(CHAR, 0), ArrayType(CHAR, 5), OpaqueType(0), OpaqueType(3), OpaqueType(16),
    UnionType("u", [("word", INT64), ("half", INT32)]),
]


def _compose(children):
    structs = st.lists(children, min_size=1, max_size=5).map(
        lambda members: StructType("s", [(f"f{i}", t) for i, t in enumerate(members)])
    )
    arrays = st.tuples(children, st.integers(0, 4)).map(lambda pair: ArrayType(*pair))
    return structs | arrays


TYPES = st.recursive(st.sampled_from(_LEAVES), _compose, max_leaves=10)
OLD_AT, NEW_AT = 0x10_0000 + 24, 0x20_0000 + 40


def _moved(move: Callable, raw: bytes, fails: Optional[int]) -> Tuple:
    """Run one mover from a source holding ``raw`` into a 0xAA-filled
    target: what it wrote, asked, published, raised and left behind."""
    source, target = AddressSpace(), AddressSpace()
    source.map(2 * PAGE_SIZE, address=0x10_0000)
    target.map(2 * PAGE_SIZE, address=0x20_0000)
    source.write_bytes(OLD_AT, raw)
    target.write_bytes(0x20_0000, b"\xaa" * 2 * PAGE_SIZE)
    translated: List[int] = []

    def translate(word: int) -> int:
        if word == 0:
            return 0
        if fails is not None and word % 3 == fails:
            raise ConflictError("tracing", f"0x{word:x}", "pointer into untraced memory")
        translated.append(word)
        return word * 5 + 1  # may leave 64 bits: the word written is its low 64

    writes: List[Tuple[int, bytes]] = []
    write = target.write_bytes
    target.write_bytes = lambda address, data: (writes.append((address, bytes(data))), write(address, data))
    raised = None
    with obs.collecting(Kernel().clock) as collector:
        try:
            move(source, target, translate)
        except ConflictError as error:
            raised = (type(error), str(error))
    spans = {k: v for k, v in collector.counters.snapshot().items() if k.startswith("transfer.span")}
    return writes, translated, spans, raised, target.read_bytes(0x20_0000, 2 * PAGE_SIZE)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(type_=TYPES, data=st.data())
def test_span_program_moves_what_the_codec_would(type_, data):
    size = type_.size
    raw = bytearray(data.draw(st.binary(min_size=size, max_size=size)))
    for word in data.draw(st.lists(st.integers(0, size // 8), max_size=4)):
        raw[word * 8 : word * 8 + 8] = bytes(len(raw[word * 8 : word * 8 + 8]))  # null arms
    fails = data.draw(st.sampled_from([None, None, 0, 1, 2]))
    program = type_.span_program()
    assert program is not None

    def decoded(source, target, translate):
        value = codec.read_value(source, OLD_AT, type_)
        transformed = transform_value(type_, type_, value, translate, subject="subject")
        writer = SpanWriter(target)
        codec.write_value(writer, NEW_AT, type_, transformed)
        writer.close()

    def spanned(source, target, translate):
        move_unchanged(program, source, OLD_AT, target, NEW_AT, size, translate)

    expected = _moved(decoded, bytes(raw), fails)
    assert _moved(spanned, bytes(raw), fails) == expected
    writes, _translated, spans, raised, _left = expected
    if raised is not None:
        assert writes == [] and spans == {}  # every translation precedes the first write
    else:
        assert sum(len(data) for _at, data in writes) == spans.get("transfer.span_bytes", 0)


def test_a_struct_naming_a_field_twice_has_no_span_program():
    # Its decoded form is one dict slot for two fields, not its bytes: it
    # keeps the decoded path, as any type the codec does not know would.
    twice = StructType("twice", [("a", INT32), ("a", INT64), ("b", INT8)])
    assert twice.span_program() is None
    assert ArrayType(twice, 2).span_program() is None
    assert StructType("outer", [("inner", twice)]).span_program() is None
    assert TypeDesc("abstract", 8, 8).span_program() is None
    padded = StructType("padded", [("a", INT8), ("b", INT64), ("c", INT16), ("f", FuncType())])
    assert padded.span_program() == (4, ((24, True),), ((0, 1), (8, 10), (24, 8)))
    assert padded.span_program() is padded.span_program()  # compiled once


# -- (c) siblings that went their own way, under shared plans -----------------------------------------

CONF = StructType("conf", [("limit", INT32), ("peer", PointerType(NODE, name="node*"))])
ARENA_AT = 0x7100_0000
HELD = PointerType(NODE, name="node*")


def _startup_then_idle(sys):
    crt = sys.process.crt
    crt.gset("conf", crt.malloc_typed(sys.thread, CONF))  # paired by allocation site
    crt.gset("blob", crt.malloc(96))  # untyped: scanned, stays where it is
    yield from idle_main(sys)


_startup_then_idle.__name__ = "idle_main"  # the helper's quiescent point names it


def _sibling_world(siblings: int):
    """Old and new version booted side by side, ``siblings`` forked children
    of each; the old root holds a two-node list and a stack variable."""
    from repro.kernel.process import sim_function

    globals_ = [
        GlobalVar("head", PointerType(NODE, name="node*")),
        GlobalVar("conf", PointerType(CONF, name="conf*")),
        GlobalVar("blob", PointerType(None, name="void*")),
        GlobalVar("arena", PointerType(NODE, name="node*")),
        GlobalVar("count", INT64),
        GlobalVar("table", ArrayType(INT64, 1200)),  # three pages of it
    ]
    kernel = Kernel()
    roots = []
    for version in ("1", "2"):
        program = make_test_program(
            globals_, types={"node": NODE, "conf": CONF}, main=sim_function(_startup_then_idle),
            version=version,
        )
        roots.append(boot_test_program(program, kernel=kernel)[2])
    old, new = roots
    crt, thread = old.crt, old.threads[1]
    nodes = [crt.malloc_typed(thread, NODE) for _ in range(2)]
    crt.set(nodes[0], NODE, "next", nodes[1])
    crt.gset("head", nodes[0])
    for root in roots:
        root.space.write_word(root.crt.stack_alloc(root.threads[1], "held", HELD), 0)
    pairs = []
    for i in range(siblings):
        pair = []
        for root in roots:
            child = kernel.do_fork(root.threads[1], idle_main, (), f"sibling-{i}")
            # fork() carries the calling thread over, not its stack overlay.
            slot = child.crt.stack_alloc(child.threads[1], "held", HELD)
            child.space.write_word(slot, nodes[1] if root is old else 0)
            pair.append(child)
        pairs.append(tuple(pair))
    return kernel, old, new, pairs


def _go_own_way(old: Process, new: Process, script: List[Tuple[int, int]]) -> None:
    crt, thread = old.crt, old.threads[1]
    table = old.symbols.lookup("table").address
    for op, arg in script:
        if op == 0:  # dirty one page of a three-page object
            old.space.write_word(table + (arg % 1200) * 8, arg)
        elif op == 1:  # dirty a small startup object
            crt.gset("count", arg)
        elif op == 2:  # malloc: a new head
            node = crt.malloc_typed(thread, NODE)
            crt.set(node, NODE, "next", crt.gget("head"))
            crt.gset("head", node)
        elif op == 3:  # free the head
            head = crt.gget("head")
            if head:
                crt.gset("head", codec.read_word(old.space, head + NODE.field("next").offset))
                crt.free(head)
        elif op == 4:  # re-register the untyped startup buffer, typed or not
            blob = crt.gget("blob")
            if old.tags.lookup(blob) is None:
                old.tags.register(blob, (INT64, NODE)[arg % 2], origin="heap", site="blob")
            else:
                old.tags.unregister(blob)
        elif op == 5:  # a never-cleared mapping holding a reachable node
            if old.space.mapping_at(ARENA_AT) is None:
                old.space.map(PAGE_SIZE, address=ARENA_AT, name="arena", kind="mmap")
                old.tags.register(ARENA_AT, NODE, origin="heap", name="arena_node")
                crt.gset("arena", ARENA_AT)
            old.space.write_word(ARENA_AT, arg)
        elif op == 6:  # the new version allocated something of its own
            new.crt.malloc_typed(new.threads[1], (NODE, CONF)[arg % 2])
        elif op == 7:  # ... or holds one more stack variable, as the old does
            for process in (old, new):
                slot = process.crt.stack_alloc(process.threads[1], f"local{arg % 3}", HELD)
                process.space.write_word(slot, 0)
        elif op == 8:  # ... or no longer has a startup object the old one does
            conf = new.crt.gget("conf")
            if conf:
                new.crt.free(conf)
                new.crt.gset("conf", 0)


def _transfer_each_against_its_own_eager(kernel, old, new, pairs, order) -> TraceMemo:
    """One memo for all; each pair's planned transfer against an eager
    rehearsal on a copy of its new process, taken just before."""
    memo = TraceMemo()
    for at in order:
        pair_old, pair_new = pairs[at]
        outcomes = []
        for cls, target in ((EagerStateTransfer, _shadow(pair_new)), (StateTransfer, pair_new)):
            transfer = cls(old, new, new.program, memo=memo)
            outcomes.append(_Outcome(transfer, [(pair_old, target)]))
        outcomes[1].assert_equals(outcomes[0])
    return memo


def _plans(memo: TraceMemo) -> int:
    return sum(len(plans) for plans in memo.plans.values())


# Dirty-only and new-side-only steps twice as likely: those leave siblings
# on one shape, which is where a plan is shared or must not be.
SCRIPTS = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 1, 2, 3, 4, 5, 6, 6, 7, 8, 8]), st.integers(0, 5000)),
    max_size=3,
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scripts=st.lists(SCRIPTS, min_size=3, max_size=4), seed=st.integers(0, 1000))
def test_siblings_under_shared_plans_each_equal_their_own_eager_transfer(scripts, seed):
    kernel, old, new, pairs = _sibling_world(len(scripts))
    for (pair_old, pair_new), script in zip(pairs, scripts):
        _go_own_way(pair_old, pair_new, script)
    order = list(range(len(pairs)))
    random.Random(seed).shuffle(order)
    memo = _transfer_each_against_its_own_eager(kernel, old, new, pairs, order)
    assert 1 <= _plans(memo) <= len(pairs)


def test_a_plan_is_shared_by_layout_not_by_shape_alone():
    # Four old siblings that differ only in which pages they dirtied: one
    # walk, one shape.  Two of the new ones differ from the rest in what
    # pairing reads — one allocated, one freed a startup object — so there
    # are three pairings, and each process gets the right one.
    scripts = [[(0, 7)], [(0, 700), (1, 3)], [(6, 0)], [(8, 0), (0, 1100)]]
    for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
        kernel, old, new, pairs = _sibling_world(len(scripts))
        for pair, script in zip(pairs, scripts):
            _go_own_way(*pair, script)
        memo = _transfer_each_against_its_own_eager(kernel, old, new, pairs, order)
        assert memo.traces_built == 1 and len(memo.plans) == 1
        assert _plans(memo) == 3


# -- (d) what a 40-session update may cost, by count ---------------------------------------------


def _count_inside(monkeypatch, outer: Tuple[Any, str], *targets: Tuple[Any, str]) -> Dict[str, int]:
    """Calls to each target made while ``outer`` is on the stack (and how
    often it was ``entered``)."""
    depth = [0]
    counts = {f"{owner.__name__}.{attr}": 0 for owner, attr in targets}
    counts["entered"] = 0
    entered = getattr(*outer)

    def inside(*args, **kwargs):
        depth[0] += 1
        counts["entered"] += 1
        try:
            return entered(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(*outer, inside)
    for (owner, attr), key in zip(targets, counts):
        def counting(*args, _call=getattr(owner, attr), _key=key, **kwargs):
            counts[_key] += bool(depth[0])
            return _call(*args, **kwargs)

        monkeypatch.setattr(owner, attr, staticmethod(counting) if attr == "__new__" else counting)
    return counts


@pytest.mark.parametrize("name,most_plans", [("vsftpd", 3), ("opensshd", 4)])
def test_a_40_session_update_pairs_once_per_layout_and_forks_by_table(name, most_plans, monkeypatch):
    from repro.mcr.tracing import transfer

    world = _served(name, sessions=40)
    assert len(world.root.tree()) == 41
    plans = CallCounter(monkeypatch, transfer._PairingPlan, "__init__")
    in_transfer = _count_inside(
        monkeypatch, (StateTransfer, "run"),
        (AddressSpace, "range_dirty"), (codec, "read_value"), (PtMallocHeap, "find_chunk"),
    )
    # ``register`` and ``_install_chunk`` make theirs without ``__new__``.
    in_fork = _count_inside(
        monkeypatch, (type(world.kernel), "fork_for_restore"), (DataTag, "__new__"),
        (Chunk, "__new__"), (TagStore, "register"), (PtMallocHeap, "_install_chunk"),
    )
    with obs.collecting(world.kernel.clock) as collector:
        result = McrCtl(world.kernel, world.session).live_update(world.make_program(2))
    assert result.committed, result.error
    counters = collector.counters.snapshot()
    # One pairing per distinct layout (the listener, a session; 41 before),
    # and the per-process part asks no object for its verdict, decodes no
    # unchanged type, and probes chunks only where a plan is built.
    assert 0 < plans.calls <= most_plans and counters["transfer.plans_built"] == plans.calls
    assert counters["transfer.processes"] == 41
    assert in_transfer["AddressSpace.range_dirty"] == 0
    assert in_transfer["repro.types.codec.read_value"] == 0
    most_tags = max(len(p.tags) for p in result.new_root.tree())
    assert 0 < in_transfer["PtMallocHeap.find_chunk"] <= plans.calls * most_tags
    assert in_transfer["entered"] == 1
    # The 40 respawned sessions were forked by copying two tables each.
    assert in_fork.pop("entered") >= 40
    assert set(in_fork.values()) == {0} and len(in_fork) == 4


# -- (e) fork shares the objects and isolates the tables ---------------------------------------------


def _tables(process: Process) -> Tuple:
    return list(process.tags.tags()), list(process.heap.chunks()), list(process.heap._free.intervals())


def test_fork_shares_tags_and_chunks_and_isolates_the_tables():
    program = make_test_program([GlobalVar("head", PointerType(NODE, name="node*"))], types={"node": NODE})
    kernel, _session, parent = boot_test_program(program)
    thread = parent.threads[1]
    kept = [parent.crt.malloc_typed(thread, NODE) for _ in range(4)]
    parent.crt.free(kept.pop(1))  # a hole in the free list
    child = kernel.do_fork(thread, idle_main, (), "child")
    sibling = kernel.do_fork(thread, idle_main, (), "sibling")
    for process in (child, sibling):  # the very objects, in tables of their own
        assert all(a is b for a, b in zip(process.tags.tags(), parent.tags.tags()))
        assert all(a is b for a, b in zip(process.heap.chunks(), parent.heap.chunks()))
        assert _tables(process) == _tables(parent)
        assert process.tags._by_address is not parent.tags._by_address
        assert process.heap._chunks is not parent.heap._chunks
    before = {process: _tables(process) for process in (parent, sibling)}

    def untouched() -> bool:
        return all(
            [a is b for a, b in zip(now, was)] == [True] * len(was)
            for process, tables in before.items()
            for now, was in zip(_tables(process)[:2], tables[:2])
        ) and all(_tables(process) == tables for process, tables in before.items())

    crt, heap, tags = child.crt, child.heap, child.tags
    fresh = crt.malloc_typed(child.threads[1], NODE)
    assert untouched() and tags.lookup(fresh) is not None and parent.tags.lookup(fresh) is None
    tags.register(kept[0], INT64, ORIGIN_HEAP, site="again")  # re-registration replaces
    assert untouched() and parent.tags.lookup(kept[0]).type is NODE
    tags.unregister(kept[1])
    heap.free(kept[1])
    assert untouched() and parent.heap.find_chunk(kept[1]) is not None
    record = _process_record(sibling)["heap"]
    record["chunks"] = record["chunks"][:-1]
    _graft_heap(heap, record)
    assert untouched() and heap.live_chunk_count() == parent.heap.live_chunk_count() - 1
    assert _tables(child) != _tables(parent)
    # Written once: a change is a new object in one table, never an edit.
    tag, chunk = parent.tags.lookup(kept[0]), parent.heap.find_chunk(kept[0])
    for immutable, field in ((tag, "address"), (tag, "type"), (chunk, "startup"), (chunk, "site_id")):
        with pytest.raises(AttributeError):
            setattr(immutable, field, getattr(immutable, field))
    assert chunk == Chunk(chunk.base, chunk.user_size, chunk.total_size, chunk.startup, chunk.site_id)
