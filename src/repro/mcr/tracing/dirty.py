"""Dirty-object filtering from soft-dirty page bits (paper §6).

Soft-dirty bits were cleared when startup completed; at update time the
bits tell us which pages were written since.  An object is *dirty* when any
page overlapping its extent is dirty.  Clean objects reachable through the
graph were (by definition) fully reinitialized by the new version's own
startup code and are skipped by state transfer — the 68–86% reduction the
paper reports.

Page granularity makes the filter conservative in the safe direction: a
clean object sharing a page with a dirty one is transferred redundantly,
never the other way around.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.kernel.process import Process
from repro.mcr.tracing.graph import ObjectRecord, TraceResult


class DirtyFilter:
    """Classify traced objects of one process as dirty or clean.

    The per-object definition.  State transfer reaches the same verdicts
    from the other end — it reads each tracker's dirty pages and looks up
    which objects lie on them (``transfer._PairingPlan``).
    """

    def __init__(self, process: Process) -> None:
        self.process = process

    def is_dirty(self, record: ObjectRecord) -> bool:
        return self.process.space.range_dirty(record.base, max(record.size, 1))

    def partition(self, result: TraceResult) -> Tuple[List[ObjectRecord], List[ObjectRecord]]:
        """Split the graph into (dirty, clean) object lists."""
        dirty: List[ObjectRecord] = []
        clean: List[ObjectRecord] = []
        for record in result.objects.values():
            (dirty if self.is_dirty(record) else clean).append(record)
        return dirty, clean

    def reduction_stats(self, result: TraceResult) -> Dict[str, float]:
        """Dirty/clean split over *transferable* state.

        Shared-library objects are excluded: they are never transferred by
        default (the new version reinitializes library state itself), so
        counting them would inflate the dirty-tracking reduction.
        """
        dirty, clean = self.partition(result)
        dirty = [o for o in dirty if o.region != "lib"]
        clean = [o for o in clean if o.region != "lib"]
        total_bytes = sum(o.size for o in dirty) + sum(o.size for o in clean) or 1
        clean_bytes = sum(o.size for o in clean)
        return {
            "objects_total": len(dirty) + len(clean),
            "objects_dirty": len(dirty),
            "objects_clean": len(clean),
            "bytes_total": total_bytes,
            "bytes_clean": clean_bytes,
            "reduction": clean_bytes / total_bytes,
        }
