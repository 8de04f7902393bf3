"""Type descriptors for simulated C data.

Every descriptor knows its ``size`` and ``align`` in the simulated 64-bit
machine and carries a ``pointer_map()`` — the byte offsets within a value of
this type at which a pointer word lives *according to the type information*,
plus what the type cannot vouch for (unions, opaque buffers, integers that
might hide pointers).  Precise tracing follows exactly the pointer offsets;
the rest is handled by the conservative scanner instead.

The map stands in for the data-type tags the paper's static pass emits at
compile time: derived once per descriptor object, on first use, from its
members' maps, and cached on the instance — tracing pays per traced
object, never per type walk.

Descriptors are immutable once constructed (the cached map and the cached
signature depend on it)
and compared structurally via ``signature()``: two versions of a program
have "the same" type when the signatures match, which is how mutable tracing
decides whether a type transformation is needed.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.types import layout

WORD_SIZE = 8  # 64-bit simulated machine

# ``(pointer_slots, opaque_ranges, int_word_slots)``: typed pointer slots as
# ``(offset, pointer_type)``, ranges precise tracing cannot interpret as
# ``(offset, size)``, and the offsets of pointer-sized integers (opaque
# words under the default "pointers as integers" policy, paper §6/§7).
PointerMap = Tuple[
    Tuple[Tuple[int, "PointerType"], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[int, ...],
]

_EMPTY_MAP: PointerMap = ((), (), ())

# ``(leaves, slots, runs)``: how a value of the type lands in memory when
# ``codec.write_value`` emits it leaf by leaf through a ``SpanWriter`` —
# the number of leaf writes, the pointer-shaped leaves in leaf order as
# ``(offset, is_function_pointer)``, and the maximal runs of adjacent
# leaves as ``(offset, length)``, i.e. exactly the spans that reach
# memory.  Padding is in no run.
SpanProgram = Tuple[int, Tuple[Tuple[int, bool], ...], Tuple[Tuple[int, int], ...]]

_NOT_COMPILED = object()


class TypeDesc:
    """Base class for all type descriptors."""

    kind = "abstract"

    def __init__(self, name: str, size: int, align: int) -> None:
        self.name = name
        self.size = size
        self.align = align
        self._pointer_map: Optional[PointerMap] = None
        self._span_program: object = _NOT_COMPILED
        self._signature: Optional[str] = None

    def pointer_map(self) -> PointerMap:
        """This type's compiled pointer map (derived on first use)."""
        compiled = self._pointer_map
        if compiled is None:
            compiled = self._pointer_map = compile_pointer_map(self)
        return compiled

    def span_program(self) -> Optional[SpanProgram]:
        """This type's compiled span program (derived on first use), or
        ``None`` for a type only the decoded path can move."""
        if self._span_program is _NOT_COMPILED:
            self._span_program = compile_span_program(self)
        return self._span_program

    def pointer_offsets(self) -> Iterator[Tuple[int, "PointerType"]]:
        """Yield ``(offset, pointer_type)`` for every typed pointer slot."""
        return iter(self.pointer_map()[0])

    def opaque_ranges(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(offset, size)`` for bytes needing conservative scan."""
        return iter(self.pointer_map()[1])

    def is_opaque(self) -> bool:
        """True when precise tracing cannot interpret this type's bytes."""
        return False

    def signature(self) -> str:
        """A structural identity string, stable across program versions.

        Built on first use and kept: ``==``, ``hash()`` and every
        transferred object ask for it, and a descriptor never changes.
        """
        built = self._signature
        if built is None:
            built = self._signature = self._build_signature()
        return built

    def _build_signature(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} size={self.size}>"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, TypeDesc) and self.signature() == other.signature()
        )

    def __hash__(self) -> int:
        return hash(self.signature())


class IntType(TypeDesc):
    """A fixed-width integer."""

    kind = "int"

    def __init__(self, size: int, signed: bool = True, name: str = "") -> None:
        if size not in (1, 2, 4, 8):
            raise ValueError(f"unsupported integer size: {size}")
        self.signed = signed
        label = name or f"{'' if signed else 'u'}int{size * 8}"
        super().__init__(label, size, size)

    def _build_signature(self) -> str:
        return f"i{'s' if self.signed else 'u'}{self.size}"


class CharType(TypeDesc):
    """A single byte.  Arrays of char are opaque to precise tracing."""

    kind = "char"

    def __init__(self) -> None:
        super().__init__("char", 1, 1)

    def _build_signature(self) -> str:
        return "c"


class PointerType(TypeDesc):
    """A typed pointer.  ``target`` of ``None`` models ``void *``."""

    kind = "pointer"

    def __init__(self, target: Optional[TypeDesc] = None, name: str = "") -> None:
        self.target = target
        target_name = target.name if target is not None else "void"
        super().__init__(name or f"{target_name}*", WORD_SIZE, WORD_SIZE)

    def _build_signature(self) -> str:
        # Pointer signatures deliberately use only the *name* of the target
        # (not its full structure): pointer graphs are cyclic, and a pointer
        # slot is layout-identical regardless of how the pointee changed.
        target_sig = self.target.name if self.target is not None else "void"
        return f"p:{target_sig}"


class FuncType(TypeDesc):
    """A function (pointers to these are code pointers, never traced)."""

    kind = "func"

    def __init__(self, name: str = "func") -> None:
        super().__init__(name, WORD_SIZE, WORD_SIZE)

    def _build_signature(self) -> str:
        return "fn"


class Field:
    """A named struct/union member."""

    __slots__ = ("name", "type", "offset")

    def __init__(self, name: str, type_: TypeDesc, offset: int = 0) -> None:
        self.name = name
        self.type = type_
        self.offset = offset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Field {self.name}:{self.type.name}@{self.offset}>"


class StructType(TypeDesc):
    """A C struct with naturally-aligned members."""

    kind = "struct"

    def __init__(self, name: str, fields: Sequence[Tuple[str, TypeDesc]]) -> None:
        pairs = [(t.size, t.align) for _, t in fields]
        offsets, size, align = layout.struct_layout(pairs)
        self.fields: Tuple[Field, ...] = tuple(
            Field(fname, ftype, offset)
            for (fname, ftype), offset in zip(fields, offsets)
        )
        # First declaration wins on a duplicate name, as a C compiler's
        # member lookup would report it.
        self._by_name: Dict[str, Field] = {f.name: f for f in reversed(self.fields)}
        super().__init__(name, size, align)

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"struct {self.name} has no field {name!r}") from None

    def has_field(self, name: str) -> bool:
        return name in self._by_name

    def is_opaque(self) -> bool:
        # A struct is traceable as long as each member is either traceable
        # or a plain scalar; embedded unions/opaque members make only those
        # *regions* opaque, handled field-by-field by the tracer.
        return False

    def _build_signature(self) -> str:
        inner = ",".join(f"{f.name}:{f.type.signature()}" for f in self.fields)
        return f"s:{self.name}{{{inner}}}"


class UnionType(TypeDesc):
    """A C union.  Always opaque: the active member is unknowable."""

    kind = "union"

    def __init__(self, name: str, fields: Sequence[Tuple[str, TypeDesc]]) -> None:
        pairs = [(t.size, t.align) for _, t in fields]
        size, align = layout.union_layout(pairs)
        self.fields = tuple(Field(fname, ftype, 0) for fname, ftype in fields)
        super().__init__(name, size, align)

    def is_opaque(self) -> bool:
        return True

    def _build_signature(self) -> str:
        inner = ",".join(f"{f.name}:{f.type.signature()}" for f in self.fields)
        return f"u:{self.name}{{{inner}}}"


class ArrayType(TypeDesc):
    """A fixed-length array."""

    kind = "array"

    def __init__(self, element: TypeDesc, count: int) -> None:
        if count < 0:
            raise ValueError(f"array count must be non-negative: {count}")
        self.element = element
        self.count = count
        super().__init__(f"{element.name}[{count}]", element.size * count, element.align)

    def is_opaque(self) -> bool:
        # char arrays are the canonical opaque buffer of the paper's
        # default policy (Listing 1's ``char b[8]``).
        return isinstance(self.element, CharType) or self.element.is_opaque()

    def _build_signature(self) -> str:
        return f"a:{self.count}x{self.element.signature()}"


class OpaqueType(TypeDesc):
    """A raw byte region with no type information at all.

    This is what an allocation from an *uninstrumented* allocator (or
    library) looks like to mutable tracing: size known, contents unknown.
    """

    kind = "opaque"

    def __init__(self, size: int, name: str = "") -> None:
        super().__init__(name or f"opaque[{size}]", size, WORD_SIZE if size >= WORD_SIZE else 1)

    def is_opaque(self) -> bool:
        return True

    def _build_signature(self) -> str:
        return f"o:{self.size}"


def compile_pointer_map(type_: TypeDesc) -> PointerMap:
    """Classify every byte of ``type_`` in one walk over its members.

    Composes from the members' own cached maps: a struct shifts each
    field's map by the field offset; an array tiles its element's map
    ``count`` times, or is empty outright when the element's map is.
    Call ``type_.pointer_map()`` instead: it caches the result.
    """
    if type_.is_opaque():
        return (), ((0, type_.size),), ()
    if isinstance(type_, PointerType):
        return ((0, type_),), (), ()
    if isinstance(type_, IntType):
        return ((), (), (0,)) if type_.size == WORD_SIZE else _EMPTY_MAP
    if isinstance(type_, StructType):
        members = [(f.offset, f.type.pointer_map()) for f in type_.fields]
    elif isinstance(type_, ArrayType):
        inner = type_.element.pointer_map()
        if not any(inner):
            return _EMPTY_MAP
        stride = type_.element.size
        members = [(index * stride, inner) for index in range(type_.count)]
    else:
        return _EMPTY_MAP
    return (
        tuple((base + off, ptr) for base, m in members for off, ptr in m[0]),
        tuple((base + off, size) for base, m in members for off, size in m[1]),
        tuple(base + off for base, m in members for off in m[2]),
    )


def _leaves(type_: TypeDesc, base: int) -> Iterator[Tuple[int, int, Optional[bool]]]:
    """``(offset, size, is_function_pointer or None)`` per leaf
    ``codec.write_value`` writes, in its order."""
    if isinstance(type_, (PointerType, FuncType)):
        yield base, WORD_SIZE, isinstance(type_, FuncType)
    elif isinstance(type_, StructType) and len(type_._by_name) == len(type_.fields):
        for f in type_.fields:
            yield from _leaves(f.type, base + f.offset)
    elif isinstance(type_, ArrayType) and not type_.is_opaque():
        for index in range(type_.count):
            yield from _leaves(type_.element, base + index * type_.element.size)
    elif isinstance(type_, (IntType, CharType, ArrayType, UnionType, OpaqueType)):
        yield base, type_.size, None
    else:
        # A struct naming a field twice decodes into one dict slot, not
        # its bytes; any other type the codec refuses as well.
        raise TypeError(type_)


def compile_span_program(type_: TypeDesc) -> Optional[SpanProgram]:
    """Walk ``type_`` once, the way ``codec.write_value`` does, and coalesce
    its leaf writes the way ``SpanWriter`` does (an empty leaf is absorbed
    like any other and extends no run).
    Call ``type_.span_program()`` instead: it caches the result.
    """
    try:
        leaves = list(_leaves(type_, 0))
    except TypeError:
        return None
    runs = []
    start = length = 0
    for offset, size, _kind in leaves:
        if length and offset == start + length:
            length += size
            continue
        if length:
            runs.append((start, length))
        start, length = offset, size
    if length:
        runs.append((start, length))
    slots = tuple((offset, kind) for offset, _size, kind in leaves if kind is not None)
    return len(leaves), slots, tuple(runs)


# Shared singleton scalars --------------------------------------------------

CHAR = CharType()
INT8 = IntType(1, signed=True)
INT16 = IntType(2, signed=True)
INT32 = IntType(4, signed=True)
INT64 = IntType(8, signed=True)
UINT8 = IntType(1, signed=False)
UINT16 = IntType(2, signed=False)
UINT32 = IntType(4, signed=False)
UINT64 = IntType(8, signed=False)
VOID_PTR = PointerType(None)
