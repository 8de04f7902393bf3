"""The state-transfer engine (paper §6).

For each quiesced new-version process, paired with its old-version
counterpart by creation-time call-stack ID:

1. **Trace** the old process (hybrid precise/conservative graph).
2. **Filter** by soft-dirty bits: clean mutable objects were already
   reinitialized by the new version's startup code and are skipped.
3. **Pair & allocate**: statics by symbol name; startup-time dynamic
   objects by allocation-site call-stack ID (they were re-created by
   mutable reinitialization); immutable objects by identity (their
   superobjects were pre-reserved); remaining dirty dynamic objects are
   freshly allocated in the new heap with the *new* type.
4. **Copy & transform**: typed objects go through the type transformer
   with pointer translation; conservatively-traversed objects are copied
   verbatim (their likely-pointer targets are immutable, so their bytes
   remain valid); nonupdatable objects whose type changed raise a
   conflict unless a user object handler resolves it.

What forked siblings have in common is computed once: the pairing (step
3) reads no dirty bit and no memory answer, so it is one ``_PairingPlan``
per distinct (trace shape, new-version layout), held on the update's
``TraceMemo``; only the selection (step 2) is per process, and it
starts from the trackers' dirty pages rather than asking every object.  A
typed object whose type did not change moves by its type's span program
(``spans.move_unchanged``), not through the codec.

The engine accounts every work item against ``TransferCostModel`` so the
update-time evaluation (Figure 3) is deterministic: total virtual time =
coordinator bring-up + serial per-process channel setup + the *max* of
per-process work (state transfer parallelizes across the hierarchy).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.errors import ConflictError, MemoryFault, StateTransferError
from repro.kernel.process import Process
from repro.mcr.config import MCRConfig, TransferCostModel
from repro.mcr.faults import fire
from repro.mcr.tracing.graph import (
    ObjectRecord,
    REGION_DYNAMIC,
    REGION_LIB,
    REGION_STATIC,
    TraceResult,
)
from repro.mcr.tracing.handlers import TraversalContext
from repro.mcr.tracing.incremental import TraceMemo
from repro.mcr.tracing.invariants import apply_invariants
from repro.mcr.tracing.spans import SpanWriter, move_unchanged
from repro.mcr.tracing.transform import transform_value
from repro.mem.pages import PAGE_SIZE
from repro.mem.tags import ORIGIN_HEAP
from repro.types import codec
from repro.types.descriptors import TypeDesc


class ProcessTransferStats:
    """Work-item counts for one process pair."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.objects_traced = 0
        self.objects_transferred = 0
        self.objects_skipped_clean = 0
        self.bytes_copied = 0
        self.pointers_fixed = 0
        self.transforms = 0
        self.words_scanned = 0
        self.pages_scanned = 0
        self.reduction = 0.0
        self.bytes_traced_total = 0
        self.bytes_clean = 0

    def work_ns(self) -> int:
        cost = TransferCostModel
        return (
            self.objects_traced * cost.PER_OBJECT_VISIT_NS
            + self.bytes_copied * cost.PER_BYTE_COPY_NS
            + self.pointers_fixed * cost.PER_POINTER_FIXUP_NS
            + self.transforms * cost.PER_TRANSFORM_NS
            + self.words_scanned * cost.PER_LIKELY_SCAN_WORD_NS
            + self.pages_scanned * cost.PER_PAGE_SCAN_NS
        )


class TransferReport:
    """Aggregate outcome of one state transfer."""

    def __init__(self) -> None:
        self.per_process: List[ProcessTransferStats] = []
        self.trace_results: Dict[int, TraceResult] = {}
        self.total_ns = 0
        self.conflicts: List[str] = []

    # Publishes through ``obs`` under "transfer.<field>".
    _PUBLISHED_FIELDS = (
        "objects_traced",
        "objects_transferred",
        "objects_skipped_clean",
        "bytes_copied",
        "pointers_fixed",
        "transforms",
        "words_scanned",
        "pages_scanned",
    )

    def publish(self) -> None:
        """Feed aggregate work-item counts into the active collector."""
        collector = obs.ACTIVE
        if collector is None:
            return
        for field in self._PUBLISHED_FIELDS:
            collector.counters.incr(
                "transfer." + field,
                sum(getattr(s, field) for s in self.per_process),
            )
        collector.counters.incr("transfer.processes", len(self.per_process))
        collector.counters.incr("transfer.conflicts", len(self.conflicts))

    def serial_total_ns(self) -> int:
        """What the transfer would cost WITHOUT cross-process parallelism
        (ablation of the paper's "parallel state transfer strategy")."""
        cost = TransferCostModel
        base = cost.BASE_COORDINATION_NS
        base += len(self.per_process) * cost.PROCESS_CHANNEL_SETUP_NS
        return base + sum(s.work_ns() for s in self.per_process)

    def aggregate_table2(self) -> Dict[str, Dict[str, int]]:
        keys = (
            "ptr",
            "src_static",
            "src_dynamic",
            "src_lib",
            "targ_static",
            "targ_dynamic",
            "targ_lib",
        )
        out = {
            "precise": {k: 0 for k in keys},
            "likely": {k: 0 for k in keys},
        }
        # Classification reads the pointer slots (one list per shape) and
        # which mapping each end falls in: once per distinct pair.
        rows: Dict[Tuple, Dict[str, Dict[str, int]]] = {}
        for result in self.trace_results.values():
            layout = tuple((m.base, m.size, m.kind) for m in result.process.space.mappings())
            row = rows.get((result.shape, layout))
            if row is None:
                row = rows[(result.shape, layout)] = result.table2_row()
            for kind in ("precise", "likely"):
                for key in keys:
                    out[kind][key] += row[kind][key]
        return out

    def aggregate_reduction(self) -> float:
        """Fraction of traced *bytes* skipped as clean, across the tree
        (the paper's 68-86% figure is state-weighted, not per-process)."""
        total = sum(s.bytes_traced_total for s in self.per_process)
        clean = sum(s.bytes_clean for s in self.per_process)
        return clean / total if total else 0.0


class _AddressIndex:
    """Containing-object lookup over a trace result."""

    def __init__(self, bases: List[int], objects: Dict[int, ObjectRecord]) -> None:
        self._bases = bases  # sorted
        self._objects = objects

    def find(self, address: int) -> Optional[ObjectRecord]:
        index = bisect.bisect_right(self._bases, address) - 1
        # Objects can nest (tagged sub-objects inside a container block):
        # prefer the innermost (closest base), walking back as needed.
        while index >= 0:
            record = self._objects[self._bases[index]]
            if record.base <= address < record.end:
                return record
            if record.end <= address and record.base + (1 << 24) < address:
                break  # far past any plausible container
            index -= 1
        return None


class _PairingPlan:
    """One pairing, for every process pair that shares it: where each
    traced object lives in the new version, and which objects a dirty page
    selects.  Objects are named by their position in trace order.
    """

    def __init__(self, key, trace: TraceResult, old_proc: Process, startup_pool, new_symbols):
        self.key = key
        self.bases: List[int] = sorted(trace.objects)
        # Old base -> new address, except for the ``fresh`` objects: those
        # are reallocated (and then always transferred) per process.
        self.addr_map: Dict[int, int] = {}
        self.fresh: List[int] = []
        self.always: Set[int] = set()  # transferred whatever the dirty bits say
        self.skippable: Set[int] = set()  # paired with startup-rebuilt state: only if dirty
        self.pages_scanned = 0
        # Sizes by position; library objects are never transferred by
        # default, so they weigh nothing in the dirty/clean split.
        self.nonlib_sizes: List[int] = []
        self._on_pages: Dict[int, Dict[int, List[int]]] = {}  # mapping base -> page -> positions
        for position, record in enumerate(trace.objects.values()):
            base, size = record.base, max(record.size, 1)
            mapping = old_proc.space.mapping_at(base)
            if mapping is None:
                raise MemoryFault(base, "dirty query on unmapped memory")
            self.pages_scanned += (size + PAGE_SIZE - 1) // PAGE_SIZE  # the bits one verdict reads
            self.nonlib_sizes.append(0 if record.region == REGION_LIB else record.size)
            by_page = self._on_pages.setdefault(mapping.base, {})
            offset = base - mapping.base
            for page in range(offset // PAGE_SIZE, (offset + size - 1) // PAGE_SIZE + 1):
                by_page.setdefault(page, []).append(position)
            if record.immutable:
                # Identity mapping; contents always refreshed (the new
                # version never re-created these bytes at this address).
                self.addr_map[base] = base
                self.always.add(position)
                continue
            counterpart = None
            if record.region == REGION_STATIC:
                # Globals pair by name.  Deleted globals stay unmapped; a
                # pointer reaching one later raises a conflict (the update
                # dropped live state).  So do stack variables: they root
                # the trace, but the new version's threads rebuilt their
                # own frames on the way to the barrier.
                if record.name and mapping.kind != "stack" and new_symbols is not None:
                    symbol = new_symbols.get(record.name)
                    counterpart = symbol.address if symbol is not None else None
            else:
                if record.region == REGION_DYNAMIC and record.startup:
                    site = record.tag.site if record.tag is not None else record.site
                    if startup_pool.get(site):
                        counterpart = startup_pool[site].pop(0)
                if counterpart is None:
                    # Mutable dynamic object (or a startup one the new
                    # version no longer allocates): reallocated in the new
                    # heap with the new version's type.
                    self.fresh.append(position)
                    self.always.add(position)
            if counterpart is not None:
                self.addr_map[base] = counterpart
                self.skippable.add(position)
        self.bytes_nonlib = sum(self.nonlib_sizes)

    def dirty_positions(self, space) -> Set[int]:
        """The objects overlapping a soft-dirty page of ``space`` (whose
        mappings are laid out as the witness's were: same shape)."""
        dirty: Set[int] = set()
        for mapping in space.mappings():
            by_page = self._on_pages.get(mapping.base, {})
            pages = mapping.tracker.soft_dirty()
            # A never-cleared mapping is dirty throughout.
            for page in by_page if pages is None else pages & by_page.keys():
                dirty.update(by_page[page])
        return dirty


class StateTransfer:
    """Transfer state from an old (quiesced) tree to a new one."""

    def __init__(
        self,
        old_root: Process,
        new_root: Process,
        new_program,
        config: Optional[MCRConfig] = None,
        use_dirty_filter: bool = True,
        only_processes: Optional[List[Process]] = None,
        memo: Optional[TraceMemo] = None,
        include_base_cost: bool = True,
    ) -> None:
        self.old_root = old_root
        self.new_root = new_root
        self.new_program = new_program
        self.config = config or MCRConfig()
        # Ablation switch: with dirty filtering off, every paired mutable
        # object is transferred (what a non-incremental MCR would do).
        self.use_dirty_filter = use_dirty_filter
        # Rolling updates transfer one worker batch at a time: restrict
        # the pairing to this subset of old processes and charge the
        # coordinator bring-up only once (with the first batch).
        self.only_processes = set(only_processes) if only_processes is not None else None
        # The update's memo: a process offline analysis already traced,
        # and that has not changed since, is not traced again.
        self.memo = memo or TraceMemo()
        self.include_base_cost = include_base_cost
        self.report = TransferReport()

    # -- top level -----------------------------------------------------------------

    def run(self) -> TransferReport:
        pairs = self.pair_processes()
        process_work_ns: List[int] = []
        for old_proc, new_proc in pairs:
            stats = self._transfer_process(old_proc, new_proc)
            self.report.per_process.append(stats)
            process_work_ns.append(stats.work_ns())
        cost = TransferCostModel
        total = cost.BASE_COORDINATION_NS if self.include_base_cost else 0
        total += len(pairs) * cost.PROCESS_CHANNEL_SETUP_NS
        total += max(process_work_ns) if process_work_ns else 0
        self.report.total_ns = total
        self.report.publish()
        return self.report

    def pair_processes(self) -> List[Tuple[Process, Process]]:
        """Match old/new processes by creation-time call-stack ID.

        pids were forced to match during mutable reinitialization, so the
        pid is checked as a secondary invariant.
        """
        new_by_stack: Dict[int, List[Process]] = {}
        for process in self.new_root.tree():
            new_by_stack.setdefault(process.creation_stack_id, []).append(process)
        pairs: List[Tuple[Process, Process]] = []
        old_procs = [
            p
            for p in self.old_root.tree()
            if self.only_processes is None or p in self.only_processes
        ]
        for old_proc in old_procs:
            candidates = new_by_stack.get(old_proc.creation_stack_id, [])
            match = None
            for candidate in candidates:
                if candidate.pid == old_proc.pid:
                    match = candidate
                    break
            if match is None and candidates:
                match = candidates[0]
            if match is None:
                raise StateTransferError(
                    f"no new-version counterpart for process {old_proc.name} "
                    f"(pid {old_proc.pid}, stack {'/'.join(old_proc.creation_stack)})"
                )
            candidates.remove(match)
            pairs.append((old_proc, match))
        return pairs

    # -- per-process transfer -----------------------------------------------------------

    def _transfer_process(self, old_proc: Process, new_proc: Process) -> ProcessTransferStats:
        stats = ProcessTransferStats(old_proc.pid)
        annotations = getattr(self.new_program, "annotations", None)
        trace = apply_invariants(self.memo.trace(old_proc, self.config, annotations))
        self.report.trace_results[old_proc.pid] = trace
        stats.objects_traced = len(trace.objects)
        stats.words_scanned = trace.words_scanned
        plan = self._plan_for(trace, old_proc, new_proc)
        # Select: the objects on a soft-dirty page, looked up from the pages.
        dirty = plan.dirty_positions(old_proc.space)
        stats.pages_scanned = plan.pages_scanned
        stats.bytes_traced_total = plan.bytes_nonlib or 1
        stats.bytes_clean = plan.bytes_nonlib - sum(plan.nonlib_sizes[i] for i in dirty)
        stats.reduction = stats.bytes_clean / stats.bytes_traced_total
        kept = plan.skippable
        if self.use_dirty_filter:
            kept = kept & dirty
            stats.objects_skipped_clean = len(plan.skippable) - len(kept)
        # Allocate, in trace order: dynamic objects with no startup
        # counterpart get a fresh chunk typed by the *new* version.
        records = list(trace.objects.values())
        addr_map = plan.addr_map
        if plan.fresh:
            addr_map = dict(addr_map)
            for position in plan.fresh:
                record = records[position]
                new_type = self._new_type_for(record)
                address = new_proc.heap.malloc(new_type.size)
                new_proc.tags.register(address, new_type, ORIGIN_HEAP, site=record.site)
                addr_map[record.base] = address
        index = _AddressIndex(plan.bases, trace.objects)

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

        # Copy/transform contents, in trace order.
        for position in sorted(plan.always | kept):
            record = records[position]
            self._transfer_object(record, addr_map[record.base], old_proc, new_proc, translate, stats)
        return stats

    def _plan_for(self, trace: TraceResult, old_proc: Process, new_proc: Process) -> "_PairingPlan":
        """The pairing of ``trace`` with ``new_proc``: a sibling's when there is one.

        The key is the trace's shape plus, by value, everything else
        pairing reads — of the new process its tags and chunks (what the
        startup pool is made from) and its symbol table.  No dirty bit and
        no byte of memory is in it, because pairing reads neither.
        """
        new_symbols = getattr(new_proc, "symbols", None)
        key = (
            new_proc.tags.table(),
            new_proc.heap.chunk_table(),
            # Forked siblings share the loader's table; a table is only added to.
            new_symbols,
            len(new_symbols) if new_symbols is not None else 0,
        )
        plans = self.memo.plans.setdefault(trace.shape, [])
        for plan in plans:
            if plan.key == key:
                return plan
        plan = _PairingPlan(key, trace, old_proc, self._startup_pool(new_proc), new_symbols)
        plans.append(plan)
        obs.incr("transfer.plans_built")
        return plan

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
        program = None if handler is not None or type_changed else new_type.span_program()
        if program is not None:
            # Unchanged type, nobody to hand a decoded value to: the bytes
            # move as the spans the codec would have written.
            move_unchanged(
                program, old_proc.space, record.base, new_proc.space, new_base,
                new_type.size, translate,
            )
            stats.bytes_copied += new_type.size
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

    # -- pairing pools ---------------------------------------------------------------------

    def _startup_pool(self, new_proc: Process) -> Dict[str, List[int]]:
        """New-version startup allocations, FIFO per allocation site.

        Includes instrumented custom-allocator (region) objects: their
        containing block is a startup heap chunk, and their tag carries
        the allocation-site call stack just like a malloc's.
        """
        pool: Dict[str, List[int]] = {}
        for origin in (ORIGIN_HEAP, "region"):
            for tag in new_proc.tags.tags(origin=origin):
                chunk = new_proc.heap.find_chunk(tag.address)
                if chunk is not None and chunk.startup:
                    pool.setdefault(tag.site, []).append(tag.address)
        for addresses in pool.values():
            addresses.sort()
        return pool

    # -- helpers ----------------------------------------------------------------------------

    def _new_type_for(self, record: ObjectRecord) -> TypeDesc:
        if record.type is None:
            from repro.types.descriptors import OpaqueType

            return OpaqueType(record.size)
        new_type = self.new_program.types.get(record.type.name)
        return new_type if new_type is not None else record.type
