"""Unit tests for mutable tracing: graph, conservative scan, invariants,
dirty filtering, and the type transformer."""

import pytest

from repro.bench.harness import SERVER_BENCHES, boot_server
from repro.errors import ConflictError
from repro.mcr.annotations import Annotations
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.tracing.conservative import scan_range
from repro.mcr.tracing.graph import AddressResolver, GraphBuilder, snapshot_index
from repro.mcr.tracing.invariants import (
    apply_invariants,
    immutable_heap_spans,
    immutable_static_symbols,
    invariant_counts,
)
from repro.mcr.tracing import precise
from repro.mcr.tracing.transform import default_value, transform_value
from repro.runtime.program import GlobalVar
from repro.types import descriptors
from repro.types.descriptors import (
    ArrayType,
    CHAR,
    INT32,
    INT64,
    OpaqueType,
    PointerType,
    StructType,
    UnionType,
)
from repro.workloads.holders import ConnectionHolder

from tests.dirty_oracles import space_range_dirty
from tests.helpers import boot_test_program, make_test_program, scan_index_of

NODE = StructType("node", [("value", INT32), ("next", PointerType(None, name="node*"))])


def _booted_world(globals_, types=None):
    program = make_test_program(globals_, types=types)
    return boot_test_program(program)


class TestPreciseSlots:
    def test_pointer_slots_of_struct(self):
        slots = precise.pointer_slots(NODE)
        assert [off for off, _ in slots] == [8]

    def test_opaque_ranges_char_member(self):
        s = StructType("s", [("a", INT32), ("buf", ArrayType(CHAR, 12))])
        assert precise.opaque_ranges(s) == [(4, 12)]

    def test_union_is_fully_opaque(self):
        u = UnionType("u", [("x", INT64), ("p", PointerType(None))])
        assert precise.opaque_ranges(u) == [(0, 8)]

    def test_int_word_slots(self):
        s = StructType("s", [("a", INT32), ("b", INT64), ("c", INT64)])
        assert precise.int_word_slots(s) == [8, 16]


class TestPointerMapsCompiledOnce:
    """Count-based guard (no wall clock): quiesced-time tracing pays per
    traced object, never per type walk.  One vsftpd update with 40 held
    sessions makes ~21 k precise visits over about a dozen descriptors."""

    def test_update_compiles_each_descriptor_at_most_once(self, monkeypatch):
        spec = SERVER_BENCHES["vsftpd"]
        world = boot_server("vsftpd")
        holder = ConnectionHolder(spec["port"], 40, spec["holder_kind"])
        holder.establish(world.kernel)
        assert holder.ready == 40
        compiled = []  # the descriptors themselves: ids stay unique while held
        plain_compile = descriptors.compile_pointer_map

        def counting_compile(type_):
            compiled.append(type_)
            return plain_compile(type_)

        monkeypatch.setattr(descriptors, "compile_pointer_map", counting_compile)
        result = McrCtl(world.kernel, world.session).live_update(spec["make_program"](2))
        holder.finish(world.kernel)

        assert result.committed
        # The 41 processes share the build's descriptor objects (11 are
        # reached here; fewer if an earlier test warmed the scalar singletons).
        assert len({id(t) for t in compiled}) == len(compiled) <= 32
        # Recorded from the parent commit (per-visit walkers): the compiled
        # maps must reach exactly the same pointers and scan the same words.
        traces = result.transfer_report.trace_results.values()
        assert len(traces) == 41
        assert sum(len(t.precise_pointers) for t in traces) == 10576
        assert sum(len(t.likely_pointers) for t in traces) == 40
        assert sum(t.words_scanned for t in traces) == 651239
        assert sum(len(t.objects) for t in traces) == 10904
        assert result.total_ms() == pytest.approx(150.344718, abs=1e-6)


class TestConservativeScan:
    def test_finds_aligned_pointer(self, space):
        space.map(4096, address=0x40000)
        space.map(4096, address=0x50000)
        space.write_word(0x40000, 0x50010)
        found, scanned = scan_range(space, 0x40000, 64, scan_index_of([(0x50000, 4096, None)]))
        assert len(found) == 1
        assert found[0].target_base == 0x50000
        assert found[0].interior  # 0x50010 != base
        assert scanned == 8

    def test_rejects_unresolvable_values(self, space):
        space.map(4096, address=0x40000)
        space.write_word(0x40000, 0x12345678AB)
        found, _ = scan_range(space, 0x40000, 64, scan_index_of([]))
        assert found == []

    def test_tag_alignment_rejection(self, space):
        space.map(4096, address=0x40000)
        space.write_word(0x40000, 0x50004)  # unaligned wrt an 8-aligned tag
        found, _ = scan_range(space, 0x40000, 16, scan_index_of([(0x50000, 64, 8)]))
        assert found == []

    def test_zero_words_skipped(self, space):
        space.map(4096, address=0x40000)
        everything = scan_index_of([(1, 2**63, None)])  # any nonzero word resolves
        found, scanned = scan_range(space, 0x40000, 64, everything)
        assert found == [] and scanned == 8


class TestGraphBuilder:
    def test_traces_linked_list_precisely(self):
        kernel, session, proc = _booted_world(
            [GlobalVar("head", PointerType(NODE, name="node*"))],
            types={"node": NODE},
        )
        crt = proc.crt
        thread = proc.threads[1]
        n1 = crt.malloc_typed(thread, NODE)
        n2 = crt.malloc_typed(thread, NODE)
        crt.set(n1, NODE, "next", n2)
        crt.gset("head", n1)
        trace = GraphBuilder(proc).build()
        assert n1 in trace.objects and n2 in trace.objects
        assert len(trace.precise_pointers) == 2  # head->n1, n1->n2
        assert not trace.objects[n1].conservatively_traversed

    def test_untyped_chunk_is_conservative(self):
        kernel, session, proc = _booted_world(
            [GlobalVar("buf_ptr", PointerType(None))]
        )
        crt = proc.crt
        raw = crt.malloc(64)
        target = crt.malloc(32)
        proc.space.write_word(raw, target)
        crt.gset("buf_ptr", raw)
        trace = apply_invariants(GraphBuilder(proc).build())
        assert trace.objects[raw].conservatively_traversed
        assert trace.objects[raw].immutable
        assert trace.objects[target].immutable
        assert trace.objects[target].nonupdatable
        assert any(p.kind == "likely" for p in trace.likely_pointers)

    def test_char_array_global_scanned(self):
        kernel, session, proc = _booted_world(
            [GlobalVar("b", ArrayType(CHAR, 16))]
        )
        crt = proc.crt
        hidden = crt.malloc(32)
        proc.space.write_word(crt.global_addr("b"), hidden)
        trace = apply_invariants(GraphBuilder(proc).build())
        assert trace.objects[hidden].immutable

    def test_pointer_sized_int_policy(self):
        kernel, session, proc = _booted_world(
            [GlobalVar("as_int", INT64)]
        )
        crt = proc.crt
        hidden = crt.malloc(32)
        crt.gset("as_int", hidden)
        trace = apply_invariants(GraphBuilder(proc).build())
        assert trace.objects[hidden].immutable

    def test_int_policy_can_be_disabled(self):
        kernel, session, proc = _booted_world([GlobalVar("as_int", INT64)])
        crt = proc.crt
        hidden = crt.malloc(32)
        crt.gset("as_int", hidden)
        config = MCRConfig(scan_opaque_int64=False)
        trace = apply_invariants(GraphBuilder(proc, config).build())
        assert hidden not in trace.objects

    def test_encoded_pointer_annotation_traces_precisely(self):
        kernel, session, proc = _booted_world([GlobalVar("enc", INT64)])
        crt = proc.crt
        thread = proc.threads[1]
        target = crt.malloc_typed(thread, NODE)
        crt.gset("enc", target | 0x3)
        annotations = Annotations()
        annotations.MCR_ANNOTATE_ENCODED_POINTER("enc", 0x3)
        trace = apply_invariants(GraphBuilder(proc, annotations=annotations).build())
        assert target in trace.objects
        assert not trace.objects[target].immutable  # precise, relocatable
        assert any(p.kind == "precise" for p in trace.precise_pointers)

    def test_forced_opaque_override(self):
        kernel, session, proc = _booted_world(
            [GlobalVar("head", PointerType(NODE, name="node*"))],
            types={"node": NODE},
        )
        crt = proc.crt
        thread = proc.threads[1]
        n1 = crt.malloc_typed(thread, NODE)
        crt.gset("head", n1)
        annotations = Annotations()
        annotations.opaque_overrides.add("head")
        trace = apply_invariants(GraphBuilder(proc, annotations=annotations).build())
        # The forced-opaque global is conservatively scanned -> target
        # becomes immutable instead of relocatable.
        assert trace.objects[n1].immutable

    def test_container_with_tagged_subobjects_scans_gaps_only(self):
        kernel, session, proc = _booted_world(
            [GlobalVar("pool_root", PointerType(None))]
        )
        crt = proc.crt
        thread = proc.threads[1]
        region = crt.region_create(block_size=1024)
        # Force region instrumentation for this allocation.
        proc.build.instrument_regions = True
        obj = crt.region_alloc_typed(thread, region, NODE)
        crt.gset("pool_root", region.first_block_base)
        trace = GraphBuilder(proc).build()
        block = trace.objects[region.first_block_base]
        assert block.gap_ranges is not None
        assert obj in trace.objects
        assert trace.objects[obj].type is not None

    def test_dangling_precise_pointer_counted(self):
        kernel, session, proc = _booted_world(
            [GlobalVar("head", PointerType(NODE, name="node*"))],
            types={"node": NODE},
        )
        proc.crt.gset("head", 0xDEAD0000)  # unmapped
        trace = GraphBuilder(proc).build()
        assert trace.dangling_precise == 1

    def test_stack_roots_traced(self):
        kernel, session, proc = _booted_world(
            [], types={"node": NODE}
        )
        crt = proc.crt
        thread = proc.threads[1]
        addr = crt.stack_alloc(thread, "local_node", NODE)
        target = crt.malloc_typed(thread, NODE)
        crt.set(addr, NODE, "next", target)
        trace = GraphBuilder(proc).build()
        assert addr in trace.objects and trace.objects[addr].is_root
        assert target in trace.objects


def _resolve(proc, address):
    """What tracing resolves ``address`` to: the scan index's answer,
    checked against the cascade it flattens."""
    resolved = snapshot_index(proc).lookup(address)
    assert resolved == AddressResolver(proc).resolve(address)
    return resolved


class TestResolver:
    def test_resolution_precedence_tag_over_chunk(self):
        kernel, session, proc = _booted_world([], types={"node": NODE})
        crt = proc.crt
        thread = proc.threads[1]
        addr = crt.malloc_typed(thread, NODE)
        base, size, align, tag = _resolve(proc, addr + 4)
        assert base == addr and tag is not None

    def test_untagged_chunk_resolution(self):
        kernel, session, proc = _booted_world([])
        raw = proc.crt.malloc(48)
        base, size, align, tag = _resolve(proc, raw + 10)
        assert base == raw and size == 48 and tag is None

    def test_unmapped_address_unresolved(self):
        kernel, session, proc = _booted_world([])
        assert _resolve(proc, 0xDEAD0000) is None

    def test_reserved_span_resolution(self):
        kernel, session, proc = _booted_world([])
        base = proc.heap.base + 2048
        proc.heap.reserve_range(base, 1024)
        resolved = _resolve(proc, base + 100)
        assert resolved is not None and resolved[0] == base


class TestDirtyFilter:
    def test_startup_state_is_clean(self):
        kernel, session, proc = _booted_world(
            [GlobalVar("head", PointerType(NODE, name="node*"))],
            types={"node": NODE},
        )
        # Allocate *after* startup completed: dirty.
        crt = proc.crt
        thread = proc.threads[1]
        node = crt.malloc_typed(thread, NODE)
        crt.gset("head", node)
        record = GraphBuilder(proc).build().objects[node]
        assert space_range_dirty(proc.space, record.base, max(record.size, 1))


class TestTransform:
    def _ptr(self, value):
        return value  # identity translator

    def test_adds_new_field_with_default(self):
        v1 = StructType("l_t", [("value", INT32), ("next", PointerType(None))])
        v2 = StructType("l_t", [("value", INT32), ("new", INT32), ("next", PointerType(None))])
        out = transform_value(v1, v2, {"value": 7, "next": 0x100}, self._ptr)
        assert out == {"value": 7, "new": 0, "next": 0x100}

    def test_drops_removed_field(self):
        v1 = StructType("s", [("a", INT32), ("b", INT32)])
        v2 = StructType("s", [("a", INT32)])
        out = transform_value(v1, v2, {"a": 1, "b": 2}, self._ptr)
        assert out == {"a": 1}

    def test_translates_pointers(self):
        v1 = StructType("s", [("p", PointerType(None))])
        out = transform_value(v1, v1, {"p": 0x1000}, lambda p: p + 0x10)
        assert out == {"p": 0x1010}

    def test_code_pointers_translated_not_copied(self):
        from repro.types.descriptors import FuncType

        s = StructType("s", [("fn", FuncType())])
        out = transform_value(s, s, {"fn": 0xC0DE}, lambda p: 0xBEEF)
        assert out == {"fn": 0xBEEF}
        out = transform_value(s, s, {"fn": 0}, lambda p: 0xBEEF)
        assert out == {"fn": 0}  # null stays null

    def test_incompatible_retyping_conflicts(self):
        v1 = StructType("s", [("x", PointerType(None))])
        v2 = StructType("s", [("x", StructType("inner", [("y", INT32)]))])
        with pytest.raises(ConflictError):
            transform_value(v1, v2, {"x": 0}, self._ptr)

    def test_opaque_shrink_conflicts(self):
        with pytest.raises(ConflictError):
            transform_value(OpaqueType(16), OpaqueType(8), b"\x00" * 16, self._ptr)

    def test_array_grows_with_defaults(self):
        v1 = ArrayType(INT32, 2)
        v2 = ArrayType(INT32, 4)
        assert transform_value(v1, v2, [1, 2], self._ptr) == [1, 2, 0, 0]

    def test_char_array_resize(self):
        v1 = ArrayType(CHAR, 4)
        v2 = ArrayType(CHAR, 8)
        assert transform_value(v1, v2, b"abcd", self._ptr) == b"abcd\x00\x00\x00\x00"

    def test_default_value_shapes(self):
        s = StructType("s", [("a", INT32), ("arr", ArrayType(INT32, 2))])
        assert default_value(s) == {"a": 0, "arr": [0, 0]}
        assert default_value(ArrayType(CHAR, 3)) == b"\x00\x00\x00"


class TestInvariantHelpers:
    def test_immutable_static_symbols_and_spans(self):
        kernel, session, proc = _booted_world(
            [GlobalVar("b", ArrayType(CHAR, 16))]
        )
        crt = proc.crt
        hidden = crt.malloc(32)
        proc.space.write_word(crt.global_addr("b"), hidden)
        trace = apply_invariants(GraphBuilder(proc).build())
        assert "b" in immutable_static_symbols(trace)
        spans = immutable_heap_spans(trace)
        assert any(start <= hidden < start + size for start, size in spans)
        counts = invariant_counts(trace)
        assert counts["immutable"] >= 2  # b itself + the hidden target
