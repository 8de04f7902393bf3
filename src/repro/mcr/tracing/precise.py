"""Precise tracing support: what a data-type tag lets us see.

Given a type descriptor, classify every byte of the object into:

* **typed pointer slots** — offsets the tracer follows precisely;
* **opaque ranges**       — unions, char arrays, embedded opaque members:
  handed to the conservative scanner;
* **integer-word slots**  — pointer-sized integers, which the default
  run-time policy also treats as opaque words ("pointers as integers",
  paper §6/§7).

The classification is purely structural — it is the descriptor's compiled
``pointer_map()``, derived once per type, and these are the three reads of
it; policy (whether int64s are scanned) is applied by the caller from
``MCRConfig``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.types.descriptors import PointerType, TypeDesc


def pointer_slots(type_: TypeDesc) -> List[Tuple[int, PointerType]]:
    """Typed pointer offsets within a value of ``type_``."""
    return list(type_.pointer_map()[0])


def opaque_ranges(type_: TypeDesc) -> List[Tuple[int, int]]:
    """(offset, size) ranges precise tracing cannot interpret."""
    return list(type_.pointer_map()[1])


def int_word_slots(type_: TypeDesc) -> List[int]:
    """Offsets of pointer-sized integers (policy-dependent opaque words)."""
    return list(type_.pointer_map()[2])
