"""Mutable tracing (paper §6).

A hybrid precise/conservative GC-style traversal of the old version's
memory, followed by state transfer into the new version:

* ``precise``      — typed pointer-slot enumeration from data-type tags;
* ``conservative`` — likely-pointer scanning of opaque regions;
* ``graph``        — object records, per-process address resolution, and
  the hybrid walk driver;
* ``incremental``  — the update-scoped ``TraceMemo`` (each distinct
  process walked once per update — siblings that answer every read of a
  walk alike share it — each distinct window classified once);
* ``invariants``   — immutability / nonupdatability assignment;
* ``transform``    — cross-version type transformations;
* ``handlers``     — user traversal handlers (``MCR_ADD_OBJ_HANDLER``);
* ``transfer``     — the state-transfer engine (pairing, relocation,
  pointer fixup, parallel multiprocess accounting).
"""

from repro.mcr.tracing.graph import GraphBuilder, ObjectRecord, PointerSlot, TraceResult
from repro.mcr.tracing.invariants import apply_invariants
from repro.mcr.tracing.transfer import StateTransfer, TransferReport

__all__ = [
    "GraphBuilder",
    "ObjectRecord",
    "PointerSlot",
    "TraceResult",
    "apply_invariants",
    "StateTransfer",
    "TransferReport",
]
