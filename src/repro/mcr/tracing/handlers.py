"""User traversal handlers: the ``MCR_ADD_OBJ_HANDLER`` machinery.

A traversal handler intervenes in the transfer of one object — the escape
hatch for everything mutable tracing cannot infer (paper §3/§6):

* pointers hidden behind special encodings (nginx stores metadata in the
  two least-significant bits of some pointers);
* semantic state transformations (e.g. re-deriving an index structure);
* objects whose bytes must be synthesized rather than copied.

The handler receives a ``TraversalContext`` and either leaves
``ctx.transformed`` as produced by the default transformer (possibly
editing it in place), assigns it wholesale, or sets ``ctx.skip`` to
leave the object's new-version bytes alone.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.mcr.tracing.graph import ObjectRecord


class TraversalContext:
    """What an object handler sees during state transfer."""

    def __init__(
        self,
        record: ObjectRecord,
        old_value: Any,
        transformed: Any,
        translate_pointer: Callable[[int], int],
        old_type,
        new_type,
    ) -> None:
        self.record = record
        self.old_value = old_value
        self.transformed = transformed
        self.translate_pointer = translate_pointer
        self.old_type = old_type
        self.new_type = new_type
        self.skip = False  # handler may suppress the transfer entirely
        # Set by the transfer engine for typed objects: handlers doing
        # semantic transformations may need to read surrounding state.
        self.old_proc = None
        self.new_proc = None

