"""The per-object soft-dirty definition, as state transfer once asked it.

Transfer now starts from each mapping's dirty pages
(``_PairingPlan.dirty_positions``) instead of asking every object; these
bodies keep the per-object question so the tests can hold the page-first
filter to it (``tests/test_transfer_plan.py``'s ``EagerDirtyFilter``) and
check the tracker's bits directly.  They read only
``PageTracker.soft_dirty()``, the one dirty set the product reads too.
"""

from __future__ import annotations

from repro.errors import MemoryFault
from repro.mem.pages import PAGE_SIZE, PageTracker


def is_dirty(tracker: PageTracker, address: int) -> bool:
    """Is the page containing ``address`` soft-dirty?"""
    dirty = tracker.soft_dirty()
    return dirty is None or (address - tracker.base) // PAGE_SIZE in dirty


def range_dirty(tracker: PageTracker, address: int, size: int) -> bool:
    """Is any page overlapping ``[address, address+size)`` soft-dirty?"""
    dirty = tracker.soft_dirty()
    if dirty is None:  # never cleared: every page is dirty
        return True
    first = (address - tracker.base) // PAGE_SIZE
    last = (address + max(size, 1) - 1 - tracker.base) // PAGE_SIZE
    return any(page in dirty for page in range(first, last + 1))


def space_range_dirty(space, address: int, size: int) -> bool:
    """``range_dirty`` over the mapping of ``space`` holding ``address``."""
    mapping = space.mapping_at(address)
    if mapping is None:
        raise MemoryFault(address, "dirty query on unmapped memory")
    return range_dirty(mapping.tracker, address, size)
