"""Property-based tests (hypothesis) on core data structures & invariants."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.kernel.process import call_stack_id
from repro.mcr.reinit.callstack import deep_match, sanitize_args
from repro.mcr.reinit.realloc import coalesce
from repro.mcr.tracing.transform import default_value, transform_value
from repro.mem.address_space import AddressSpace
from repro.mem.pages import PAGE_SIZE, PageTracker
from repro.mem.ptmalloc import PtMallocHeap
from repro.mem.tags import TagStore
from repro.types.descriptors import (
    ArrayType,
    CHAR,
    CharType,
    FuncType,
    INT32,
    INT64,
    IntType,
    OpaqueType,
    PointerType,
    StructType,
    UnionType,
    WORD_SIZE,
)
from tests.dirty_oracles import is_dirty

# -- strategy helpers ---------------------------------------------------------

_field_types = st.sampled_from([INT32, INT64, CHAR, PointerType(None)])


@st.composite
def struct_types(draw, name="s", min_fields=1, max_fields=6):
    count = draw(st.integers(min_fields, max_fields))
    fields = [(f"f{i}", draw(_field_types)) for i in range(count)]
    return StructType(name, fields)


@st.composite
def struct_values(draw, struct):
    value = {}
    for field in struct.fields:
        if field.type is CHAR:
            value[field.name] = draw(st.integers(0, 255))
        elif field.type.kind == "pointer":
            value[field.name] = draw(st.integers(0, 2**48))
        elif field.type is INT32:
            value[field.name] = draw(st.integers(-(2**31), 2**31 - 1))
        else:
            value[field.name] = draw(st.integers(-(2**63), 2**63 - 1))
    return value


class TestTransformProperties:
    @given(st.data())
    @settings(max_examples=60)
    def test_identity_transform_roundtrips(self, data):
        struct = data.draw(struct_types())
        value = data.draw(struct_values(struct))
        out = transform_value(struct, struct, value, lambda p: p)
        # Pointers survive identity translation; scalars unchanged.
        assert out == value

    @given(st.data())
    @settings(max_examples=60)
    def test_field_addition_preserves_common_fields(self, data):
        base = data.draw(struct_types(max_fields=4))
        value = data.draw(struct_values(base))
        grown = StructType("s", [(f.name, f.type) for f in base.fields] + [("extra", INT64)])
        out = transform_value(base, grown, value, lambda p: p)
        for field in base.fields:
            assert out[field.name] == value[field.name]
        assert out["extra"] == 0

    @given(st.data())
    @settings(max_examples=60)
    def test_field_removal_keeps_remainder(self, data):
        base = data.draw(struct_types(min_fields=2))
        value = data.draw(struct_values(base))
        shrunk = StructType("s", [(f.name, f.type) for f in base.fields[:-1]])
        out = transform_value(base, shrunk, value, lambda p: p)
        assert set(out) == {f.name for f in shrunk.fields}

    @given(st.data())
    @settings(max_examples=40)
    def test_default_value_encodable(self, data):
        struct = data.draw(struct_types())
        space = AddressSpace()
        space.map(4096, address=0x30000)
        from repro.types import codec

        codec.write_value(space, 0x30000, struct, default_value(struct))
        assert codec.read_value(space, 0x30000, struct) == default_value(struct)


# -- compiled pointer maps ----------------------------------------------------
#
# Descriptors are drawn as *recipes* (plain nested tuples) so that one draw
# can be built twice into separate descriptor objects.  Every member has at
# least one byte: the oracle below classifies bytes, and a zero-size member
# owns none.

_leaf_recipes = st.one_of(
    st.tuples(st.just("int"), st.sampled_from([1, 2, 4, 8]), st.booleans()),
    st.just(("char",)),
    st.tuples(st.just("pointer"), st.booleans()),
    st.just(("func",)),
    st.tuples(st.just("opaque"), st.integers(1, 40)),
)
_array_counts = st.one_of(st.integers(1, 6), st.integers(1, 4000))
# The oracle visits every byte in Python, and nested arrays multiply.
_MAX_TYPE_BYTES = 1 << 15


def build_type(recipe):
    kind = recipe[0]
    if kind == "int":
        return IntType(recipe[1], signed=recipe[2])
    if kind == "char":
        return CharType()
    if kind == "pointer":
        return PointerType(INT32 if recipe[1] else None)
    if kind == "func":
        return FuncType()
    if kind == "opaque":
        return OpaqueType(recipe[1])
    if kind == "array":
        return ArrayType(build_type(recipe[1]), recipe[2])
    members = [(f"m{i}", build_type(r)) for i, r in enumerate(recipe[1])]
    return StructType("s", members) if kind == "struct" else UnionType("u", members)


_type_recipes = st.recursive(
    _leaf_recipes,
    lambda inner: st.one_of(
        st.tuples(st.just("struct"), st.lists(inner, min_size=1, max_size=5)),
        st.tuples(st.just("union"), st.lists(inner, min_size=1, max_size=3)),
        st.tuples(st.just("array"), inner, _array_counts),
    ),
    max_leaves=12,
).filter(lambda recipe: build_type(recipe).size <= _MAX_TYPE_BYTES)


def _oracle_opaque(type_):
    if isinstance(type_, (UnionType, OpaqueType)):
        return True
    return isinstance(type_, ArrayType) and (
        isinstance(type_.element, CharType) or _oracle_opaque(type_.element)
    )


def _oracle_leaf(type_, offset):
    """``(start, leaf)`` of the scalar or outermost opaque region owning the
    byte at ``offset``, or ``None`` for struct padding."""
    if _oracle_opaque(type_):
        return 0, type_
    if isinstance(type_, ArrayType):
        stride = type_.element.size
        hit = _oracle_leaf(type_.element, offset % stride)
        return hit and (offset - offset % stride + hit[0], hit[1])
    if isinstance(type_, StructType):
        for field in type_.fields:
            if field.offset <= offset < field.offset + field.type.size:
                hit = _oracle_leaf(field.type, offset - field.offset)
                return hit and (field.offset + hit[0], hit[1])
        return None
    return 0, type_


def oracle_pointer_map(type_):
    """The map by brute force: ask, byte by byte, which leaf owns it."""
    leaves = {}
    for offset in range(type_.size):
        hit = _oracle_leaf(type_, offset)
        if hit is not None:
            leaves[hit[0]] = hit[1]
    pointers, opaque, int_words = [], [], []
    for start, leaf in sorted(leaves.items()):
        if _oracle_opaque(leaf):
            opaque.append((start, leaf.size))
        elif isinstance(leaf, PointerType):
            pointers.append((start, leaf))
        elif isinstance(leaf, IntType) and leaf.size == WORD_SIZE:
            int_words.append(start)
    return tuple(pointers), tuple(opaque), tuple(int_words)


class TestPointerMapProperties:
    @given(_type_recipes)
    @settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
    def test_compiled_map_equals_bytewise_oracle(self, recipe):
        type_ = build_type(recipe)
        assert type_.pointer_map() == oracle_pointer_map(type_)

    @given(_type_recipes)
    @settings(max_examples=120)
    def test_components_disjoint_and_in_bounds(self, recipe):
        type_ = build_type(recipe)
        pointers, opaque, int_words = type_.pointer_map()
        spans = sorted(
            [(off, off + WORD_SIZE) for off, _ in pointers]
            + [(off, off + size) for off, size in opaque]
            + [(off, off + WORD_SIZE) for off in int_words]
        )
        assert all(0 <= start < end <= type_.size for start, end in spans)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))

    @given(_type_recipes)
    @settings(max_examples=60)
    def test_equal_descriptors_compile_equal_maps(self, recipe):
        first, second = build_type(recipe), build_type(recipe)
        assert first is not second and first == second
        assert first.pointer_map() == second.pointer_map()
        # ... and the map is cached on each instance, not recomputed.
        assert first.pointer_map() is first.pointer_map()


class TestCoalesceProperties:
    spans = st.lists(
        st.tuples(
            st.integers(0x1000, 0x100000).map(lambda v: v & ~0xF),
            st.integers(1, 512),
        ),
        min_size=0,
        max_size=30,
    )

    @given(spans)
    @settings(max_examples=80)
    def test_coalesce_covers_all_inputs(self, spans):
        merged = coalesce(spans)
        for base, size in spans:
            assert any(o.base <= base and base + size <= o.end for o in merged)

    @given(spans)
    @settings(max_examples=80)
    def test_coalesce_output_sorted_and_disjoint(self, spans):
        merged = coalesce(spans)
        for a, b in zip(merged, merged[1:]):
            assert a.end < b.base  # strictly disjoint, ascending

    @given(spans)
    @settings(max_examples=40)
    def test_coalesce_idempotent(self, spans):
        once = coalesce(spans)
        twice = coalesce([(o.base, o.size) for o in once])
        assert [(o.base, o.size) for o in once] == [(o.base, o.size) for o in twice]


class TestHeapProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 1500), st.booleans()),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=40)
    def test_interleaved_alloc_free_never_overlaps(self, operations):
        space = AddressSpace()
        heap = PtMallocHeap(space)
        heap.end_startup()
        live = {}
        for size, should_free in operations:
            addr = heap.malloc(size)
            # No overlap with any live allocation.
            for other, other_size in live.items():
                assert addr + size <= other or other + other_size <= addr
            if should_free:
                heap.free(addr)
            else:
                live[addr] = size
        assert heap.live_chunk_count() == len(live)

    @given(st.lists(st.integers(1, 300), min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_reserved_ranges_never_allocated(self, sizes):
        space = AddressSpace()
        heap = PtMallocHeap(space)
        heap.end_startup()
        reserved_base = heap.base + 64 * 1024
        heap.reserve_range(reserved_base, 4096)
        for size in sizes:
            addr = heap.malloc(size)
            chunk = heap.find_chunk(addr)
            assert not (
                chunk.base < reserved_base + 4096
                and reserved_base < chunk.base + chunk.total_size
            )


class TestPageTrackerProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 16 * PAGE_SIZE - 64), st.integers(1, 64)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50)
    def test_dirty_iff_written(self, writes):
        tracker = PageTracker(0, 16 * PAGE_SIZE)
        tracker.clear()
        written_pages = set()
        for address, size in writes:
            tracker.note_write(address, size)
            for page in range(address // PAGE_SIZE, (address + size - 1) // PAGE_SIZE + 1):
                written_pages.add(page)
        for page in range(16):
            assert is_dirty(tracker, page * PAGE_SIZE) == (page in written_pages)


class TestTagStoreProperties:
    @given(st.sets(st.integers(0, 1000), min_size=1, max_size=60))
    @settings(max_examples=40)
    def test_find_containing_consistency(self, slots):
        store = TagStore()
        node = StructType("n", [("x", INT64)])
        addresses = sorted(0x1000 + s * 16 for s in slots)
        for address in addresses:
            store.register(address, node, "heap")
        for address in addresses:
            assert store.find_containing(address + 4).address == address
        # Gaps between objects resolve to nothing.
        for address in addresses:
            gap = address + node.size
            if gap not in addresses:
                found = store.find_containing(gap)
                assert found is None or found.address != address


class TestMatchProperties:
    args_strategy = st.dictionaries(
        st.sampled_from(["fd", "port", "path", "data"]),
        st.one_of(st.integers(0, 100), st.text(max_size=8), st.binary(max_size=16)),
        max_size=4,
    )

    @given(args_strategy)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_sanitized_args_always_match_themselves(self, args):
        sanitized = sanitize_args(args)
        assert deep_match(sanitized, sanitize_args(args))

    @given(st.lists(st.text(min_size=1, max_size=12), max_size=6))
    @settings(max_examples=60)
    def test_call_stack_id_injective_enough(self, names):
        assume(names)
        base = call_stack_id(names)
        assert call_stack_id(list(names)) == base
        mutated = names + ["extra_frame"]
        assert call_stack_id(mutated) != base
