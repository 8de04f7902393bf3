"""Unit tests for the C-like type system."""

import pytest

from repro.types.descriptors import (
    ArrayType,
    CHAR,
    FuncType,
    INT16,
    INT32,
    INT64,
    OpaqueType,
    PointerType,
    StructType,
    UINT8,
    UnionType,
    VOID_PTR,
    WORD_SIZE,
)
from repro.types.layout import align_up, struct_layout, union_layout


class TestLayout:
    def test_align_up_exact(self):
        assert align_up(16, 8) == 16

    def test_align_up_rounds(self):
        assert align_up(17, 8) == 24

    def test_align_up_rejects_zero(self):
        with pytest.raises(ValueError):
            align_up(4, 0)

    def test_struct_layout_padding(self):
        # int32 at 0, int64 padded to 8, total 16, align 8 (SysV).
        offsets, size, align = struct_layout([(4, 4), (8, 8)])
        assert offsets == [0, 8]
        assert size == 16
        assert align == 8

    def test_struct_layout_tail_padding(self):
        offsets, size, align = struct_layout([(8, 8), (1, 1)])
        assert size == 16  # padded to struct alignment

    def test_empty_struct(self):
        offsets, size, align = struct_layout([])
        assert offsets == [] and size == 0 and align == 1

    def test_union_layout(self):
        size, align = union_layout([(4, 4), (12, 8)])
        assert align == 8
        assert size == 16


class TestDescriptors:
    def test_int_sizes(self):
        assert INT32.size == 4 and INT64.size == 8 and UINT8.size == 1

    def test_pointer_is_word_sized(self):
        assert VOID_PTR.size == WORD_SIZE

    def test_struct_field_offsets(self):
        s = StructType("s", [("a", INT32), ("p", VOID_PTR), ("b", INT16)])
        assert s.field("a").offset == 0
        assert s.field("p").offset == 8
        assert s.field("b").offset == 16
        assert s.size == 24

    def test_struct_missing_field_raises(self):
        s = StructType("s", [("a", INT32)])
        with pytest.raises(KeyError):
            s.field("zzz")

    def test_has_field(self):
        s = StructType("s", [("a", INT32), ("p", VOID_PTR)])
        assert s.has_field("p") and not s.has_field("zzz")

    def test_fields_are_immutable(self):
        # The compiled pointer map is cached per descriptor, so the member
        # list it was compiled from must not change afterwards.
        s = StructType("s", [("a", INT32)])
        u = UnionType("u", [("a", INT64), ("p", VOID_PTR)])
        for desc in (s, u):
            with pytest.raises(AttributeError):
                desc.fields.append(desc.fields[0])
            with pytest.raises(TypeError):
                desc.fields[0] = desc.fields[0]

    def test_pointer_offsets_struct(self):
        s = StructType("s", [("a", INT32), ("p", VOID_PTR), ("q", PointerType(INT32))])
        offsets = [off for off, _ in s.pointer_offsets()]
        assert offsets == [8, 16]

    def test_pointer_offsets_array_of_structs(self):
        node = StructType("node", [("v", INT32), ("next", VOID_PTR)])
        arr = ArrayType(node, 3)
        offsets = [off for off, _ in arr.pointer_offsets()]
        assert offsets == [8, 24, 40]

    def test_char_array_is_opaque(self):
        assert ArrayType(CHAR, 8).is_opaque()

    def test_int_array_is_not_opaque(self):
        assert not ArrayType(INT32, 8).is_opaque()

    def test_union_is_opaque(self):
        u = UnionType("u", [("a", INT64), ("p", VOID_PTR)])
        assert u.is_opaque()
        assert u.size == 8

    def test_opaque_ranges_of_embedded_buffer(self):
        s = StructType("s", [("a", INT32), ("buf", ArrayType(CHAR, 16)), ("p", VOID_PTR)])
        ranges = list(s.opaque_ranges())
        assert ranges == [(4, 16)]

    def test_pointer_map_components(self):
        inner = StructType("in", [("n", INT64), ("u", UnionType("u", [("p", VOID_PTR)]))])
        s = StructType("s", [("c", CHAR), ("arr", ArrayType(inner, 2)), ("p", VOID_PTR)])
        pointers, opaque, int_words = s.pointer_map()
        assert [off for off, _ in pointers] == [40]
        assert opaque == ((16, 8), (32, 8))
        assert int_words == (8, 24)

    def test_pointerless_array_is_not_tiled(self):
        # Far too many elements to enumerate: empty because the element is.
        assert ArrayType(INT32, 1 << 40).pointer_map() == ((), (), ())

    def test_signature_detects_field_addition(self):
        v1 = StructType("l_t", [("value", INT32), ("next", VOID_PTR)])
        v2 = StructType("l_t", [("value", INT32), ("new", INT32), ("next", VOID_PTR)])
        assert v1.signature() != v2.signature()
        assert v1 != v2

    def test_signature_stable_for_same_shape(self):
        a = StructType("t", [("x", INT32)])
        b = StructType("t", [("x", INT32)])
        assert a == b and hash(a) == hash(b)

    def test_signature_is_built_once_per_descriptor(self, monkeypatch):
        built = []
        plain = StructType._build_signature
        monkeypatch.setattr(
            StructType, "_build_signature", lambda self: (built.append(self), plain(self))[1]
        )
        inner = StructType("in", [("n", INT64), ("p", VOID_PTR)])
        outer = StructType("out", [("head", inner), ("rest", ArrayType(inner, 4))])
        twin = StructType("out", [("head", inner), ("rest", ArrayType(inner, 4))])
        for _ in range(3):
            assert outer == twin and hash(outer) == hash(twin) and outer == outer
            assert outer.signature() == (
                "s:out{head:s:in{n:is8,p:p:void},rest:a:4xs:in{n:is8,p:p:void}}"
            )
            assert {outer: "found"}[twin] == "found"
        # ``==``, ``hash()`` and ``signature()`` all read the one string each
        # instance built: the two outer structs and the struct they share.
        assert sorted(map(id, built)) == sorted(map(id, (inner, outer, twin)))
        # Structurally equal descriptors built apart still compare equal; a
        # different shape still does not, cached or not.
        assert outer != StructType("out", [("head", inner), ("rest", ArrayType(inner, 5))])
        assert outer != "s:out" and INT64 != VOID_PTR

    def test_pointer_signature_uses_target_name_only(self):
        # Cyclic type graphs must not recurse through pointers.
        v1 = PointerType(StructType("n", [("v", INT32)]))
        v2 = PointerType(StructType("n", [("v", INT64)]))
        assert v1.signature() == v2.signature()

    def test_negative_array_count_rejected(self):
        with pytest.raises(ValueError):
            ArrayType(INT32, -1)

    def test_opaque_type(self):
        o = OpaqueType(40)
        assert o.is_opaque() and o.size == 40

    def test_func_type(self):
        f = FuncType("handler")
        assert f.size == WORD_SIZE and f.signature() == "fn"
