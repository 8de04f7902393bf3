"""Cross-version type transformations (paper §6).

Given an old object with type T_old and its new-version counterpart typed
T_new, produce the new object's field contents:

* fields matched **by name**: value carried over (pointers via the address
  translation callback, scalars converted/truncated C-style);
* fields only in T_new: default-initialized (zero) — the ``new`` field of
  the paper's Figure 2;
* fields only in T_old: dropped;
* a same-name field whose type changed incompatibly (struct vs scalar,
  pointer vs non-pointer) is a conflict the caller must resolve with an
  object handler.

The transformer works on *decoded* values (the codec's dict/list/int
representation) so it composes with user traversal handlers, which receive
and may rewrite the same representation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import ConflictError
from repro.types.descriptors import (
    ArrayType,
    CharType,
    FuncType,
    IntType,
    OpaqueType,
    PointerType,
    StructType,
    TypeDesc,
    UnionType,
)

PointerTranslator = Callable[[int], int]


def default_value(type_: TypeDesc) -> Any:
    """The zero value of a type (used for fields new in this version)."""
    if isinstance(type_, (IntType, CharType, PointerType, FuncType)):
        return 0
    if isinstance(type_, StructType):
        return {f.name: default_value(f.type) for f in type_.fields}
    if isinstance(type_, ArrayType):
        if type_.is_opaque():
            return b"\x00" * type_.size
        return [default_value(type_.element) for _ in range(type_.count)]
    return b"\x00" * type_.size


def transform_value(
    old_type: TypeDesc,
    new_type: TypeDesc,
    value: Any,
    translate_pointer: PointerTranslator,
    subject: str = "<value>",
) -> Any:
    """Map a decoded old value onto the new type."""
    if isinstance(old_type, PointerType) and isinstance(new_type, PointerType):
        return translate_pointer(int(value))
    if isinstance(old_type, FuncType) and isinstance(new_type, FuncType):
        # Code addresses are never copied: the translator remaps them by
        # function symbol (or they dangle into the old text image).
        return translate_pointer(int(value)) if value else 0
    if isinstance(old_type, IntType) and isinstance(new_type, IntType):
        return value  # codec re-wraps on write
    if isinstance(old_type, CharType) and isinstance(new_type, CharType):
        return value
    if isinstance(old_type, StructType) and isinstance(new_type, StructType):
        return transform_struct(old_type, new_type, value, translate_pointer, subject)
    if isinstance(old_type, ArrayType) and isinstance(new_type, ArrayType):
        return _transform_array(old_type, new_type, value, translate_pointer, subject)
    if isinstance(old_type, (UnionType, OpaqueType)) and isinstance(
        new_type, (UnionType, OpaqueType)
    ):
        if new_type.size < old_type.size:
            raise ConflictError(
                "tracing", subject, "opaque region shrank; cannot transform blindly"
            )
        return bytes(value).ljust(new_type.size, b"\x00")
    raise ConflictError(
        "tracing",
        subject,
        f"incompatible retyping {old_type.name} -> {new_type.name}",
    )


def transform_struct(
    old_type: StructType,
    new_type: StructType,
    value: Dict[str, Any],
    translate_pointer: PointerTranslator,
    subject: str = "<struct>",
) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for field in new_type.fields:
        if old_type.has_field(field.name):
            old_field = old_type.field(field.name)
            out[field.name] = transform_value(
                old_field.type,
                field.type,
                value[field.name],
                translate_pointer,
                subject=f"{subject}.{field.name}",
            )
        else:
            out[field.name] = default_value(field.type)
    return out


def _transform_array(
    old_type: ArrayType,
    new_type: ArrayType,
    value: Any,
    translate_pointer: PointerTranslator,
    subject: str,
) -> Any:
    if old_type.is_opaque() or new_type.is_opaque():
        data = bytes(value) if isinstance(value, (bytes, bytearray)) else bytes(value)
        if new_type.size < len(data):
            data = data[: new_type.size]
        return data.ljust(new_type.size, b"\x00")
    count = min(old_type.count, new_type.count)
    out = [
        transform_value(
            old_type.element,
            new_type.element,
            value[i],
            translate_pointer,
            subject=f"{subject}[{i}]",
        )
        for i in range(count)
    ]
    out.extend(default_value(new_type.element) for _ in range(new_type.count - count))
    return out
