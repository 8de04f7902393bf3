"""MCR user annotations.

The paper's annotation surface (Listing 1 and §8), each with a LOC weight
so the Table-1 engineering-effort benchmark can account them the way the
paper counts annotation LOC:

* ``MCR_ADD_OBJ_HANDLER``    — a traversal handler for one state object:
  decodes "hidden" pointers (e.g. nginx's low-bit pointer encoding) or
  applies a semantic transformation mutable tracing cannot infer.
* ``MCR_ADD_REINIT_HANDLER`` — a mutable-reinitialization hook: resolves
  replay conflicts, replays semantically-changed operations, or recreates
  volatile quiescent states (servers that spawn workers on demand).
* ``opaque_overrides`` — global names whose objects tracing treats as
  opaque (scanned conservatively) whatever their declared type.
* ``allocator annotations``  — declare a custom allocator region-based so
  the allocation-type analysis can instrument it.

Handlers receive a context object owned by the calling subsystem (a
``TraversalContext`` from tracing or a ``ReplayContext`` from reinit).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class ObjHandler:
    """Traversal handler attached to a named object or type."""

    def __init__(self, target: str, handler: Callable, loc: int = 2) -> None:
        self.target = target  # symbol name or type name
        self.handler = handler
        self.loc = loc


class ReinitHandler:
    """Reinitialization hook; ``stage`` selects when it runs.

    Stages: ``"conflict"`` (a replay conflict was flagged — return True to
    resolve it), ``"post_startup"`` (control migration finished — recreate
    volatile quiescent states), ``"pre_startup"`` (before the new version's
    startup code runs).
    """

    def __init__(self, handler: Callable, stage: str = "conflict", loc: int = 4) -> None:
        self.handler = handler
        self.stage = stage
        self.loc = loc


class Annotations:
    """The annotation set of one program version."""

    def __init__(self) -> None:
        self.obj_handlers: Dict[str, ObjHandler] = {}
        self.reinit_handlers: List[ReinitHandler] = []
        self.opaque_overrides: set = set()    # names forced opaque
        # name -> tag-bit mask for pointers stored with metadata in their
        # low bits (the nginx idiom: 22 LOC in the paper's evaluation).
        self.encoded_pointers: Dict[str, int] = {}
        self.extra_loc: int = 0               # misc. preparation LOC

    # -- the user-facing macros ----------------------------------------------

    def MCR_ADD_OBJ_HANDLER(self, target: str, handler: Callable, loc: int = 2) -> None:
        self.obj_handlers[target] = ObjHandler(target, handler, loc)

    def MCR_ADD_REINIT_HANDLER(self, handler: Callable, stage: str = "conflict", loc: int = 4) -> None:
        self.reinit_handlers.append(ReinitHandler(handler, stage, loc))

    def MCR_ANNOTATE_ENCODED_POINTER(self, name: str, tag_bits: int = 0x3, loc: int = 2) -> None:
        """Declare that global ``name`` stores a pointer with metadata in
        its low ``tag_bits``: the tracer decodes it precisely (instead of
        conservatively pinning the target) and transfer re-encodes it."""
        self.encoded_pointers[name] = tag_bits
        self.extra_loc += loc

    def note_preparation_loc(self, loc: int) -> None:
        """Account non-macro preparation changes (e.g. the 8 LOC that stop
        Apache aborting when it detects its own running instance)."""
        self.extra_loc += loc

    # -- queries ---------------------------------------------------------------

    def obj_handler_for(self, *names: str) -> Optional[ObjHandler]:
        for name in names:
            if name and name in self.obj_handlers:
                return self.obj_handlers[name]
        return None

    def handlers_for_stage(self, stage: str) -> List[ReinitHandler]:
        return [h for h in self.reinit_handlers if h.stage == stage]

    def annotation_loc(self) -> int:
        """Total annotation LOC (the Table-1 'Ann LOC' analogue)."""
        total = self.extra_loc
        total += sum(h.loc for h in self.obj_handlers.values())
        total += sum(h.loc for h in self.reinit_handlers)
        total += len(self.opaque_overrides)
        return total
