"""Page-granular soft-dirty tracking.

Models the Linux soft-dirty bit mechanism (``/proc/<pid>/clear_refs`` write
of ``4`` + the soft-dirty bit in ``pagemap``) that MCR uses to find the data
structures modified after startup:

* ``clear()`` marks every page soft-clean and "write-protects" it.
* The first write into a clean page takes a simulated minor fault (counted,
  so the cost model can charge it), marks the page soft-dirty, and
  "unprotects" it — subsequent writes are free, exactly like the kernel
  mechanism.
* ``soft_dirty()`` is the set of pages written since the last ``clear()``.

Before the first ``clear()`` every page is considered dirty (matching the
kernel default where soft-dirty bits start set for new mappings).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

PAGE_SIZE = 4096


def page_runs(pages: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """Coalesce ascending page numbers into ``[start, stop)`` byte offsets."""
    first = 0
    for i in range(1, len(pages) + 1):
        if i == len(pages) or pages[i] != pages[i - 1] + 1:
            yield pages[first] * PAGE_SIZE, (pages[i - 1] + 1) * PAGE_SIZE
            first = i


class PageTracker:
    """Soft-dirty bookkeeping for one contiguous mapping."""

    def __init__(self, base: int, size: int) -> None:
        if base % PAGE_SIZE:
            raise ValueError(f"mapping base not page-aligned: 0x{base:x}")
        self.base = base
        self.size = size
        self.num_pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        self._cleared_once = False
        self._dirty: Set[int] = set()
        # Pages ever written (never reset): the demand-paging resident set.
        self.ever_written: Set[int] = set()
        self.fault_count = 0  # simulated write-protect faults taken
        # Monotonic write sequencing, independent of the soft-dirty bits
        # (which belong to the update-time dirty filter and must not be
        # cleared by anyone else's bookkeeping).  ``write_seq`` advances on
        # every write — the trace memo's "were these bytes written since?"
        # test — and ``_page_seq`` records the last sequence number that
        # touched each page, the incremental-checkpoint delta source.
        self.write_seq = 0
        self._page_seq: Dict[int, int] = {}
        # Bumped by ``Mapping.load`` / ``replace``: a graft changes bytes
        # without being a program write, so it moves none of the sequencing
        # above and a validity test built on ``write_seq`` alone would be
        # blind to it.
        self.graft_epoch = 0

    def clear(self) -> None:
        """Mark all pages soft-clean (CRIU-style ``clear_refs``)."""
        self._cleared_once = True
        self._dirty.clear()

    def clone(self) -> "PageTracker":
        """fork(): duplicate all tracking state, preserving semantics.

        ``_cleared_once``, the soft-dirty set, the resident set, the fault
        count, the write sequencing and the graft epoch all carry over — a
        forked child must observe exactly the dirty-page state of its
        parent, or the update-time dirty filter would treat inherited
        writes as clean.
        """
        twin = PageTracker(self.base, self.size)
        twin._cleared_once = self._cleared_once
        twin._dirty = set(self._dirty)
        twin.ever_written = set(self.ever_written)
        twin.fault_count = self.fault_count
        twin.write_seq = self.write_seq
        twin._page_seq = dict(self._page_seq)
        twin.graft_epoch = self.graft_epoch
        return twin

    def resident_runs(self) -> Iterator[Tuple[int, int]]:
        """Coalesce ``ever_written`` into ascending ``[start, stop)`` byte offsets."""
        return page_runs(sorted(self.ever_written))

    def note_write(self, address: int, size: int) -> int:
        """Record a write of ``size`` bytes at ``address``.

        Returns the number of write-protect faults this write took (pages
        that transitioned clean -> dirty), for cost accounting.
        """
        first = (address - self.base) // PAGE_SIZE
        last = (address + max(size, 1) - 1 - self.base) // PAGE_SIZE
        self.write_seq = seq = self.write_seq + 1
        if first == last:  # the common case: a word or a small object
            self.ever_written.add(first)
            self._page_seq[first] = seq
            if not self._cleared_once or first in self._dirty:
                return 0
            self._dirty.add(first)
            self.fault_count += 1
            return 1
        pages = range(first, last + 1)
        self.ever_written.update(pages)
        page_seq = self._page_seq
        for page in pages:
            page_seq[page] = seq
        if not self._cleared_once:
            return 0
        dirty = self._dirty
        faults = 0
        for page in pages:
            if page not in dirty:
                dirty.add(page)
                faults += 1
        self.fault_count += faults
        return faults

    def soft_dirty(self) -> Optional[Set[int]]:
        """The soft-dirty page indexes (read-only), or ``None`` before the
        first ``clear()``: every page is dirty then."""
        return self._dirty if self._cleared_once else None

    def pages_written_since(self, seq: int) -> Iterator[int]:
        """Yield base addresses of pages written after write-sequence ``seq``.

        The incremental-checkpoint delta source: a full image records each
        mapping's ``write_seq``, and the next checkpoint ships exactly the
        pages this yields, without disturbing the soft-dirty bits.
        """
        for page in sorted(self._page_seq):
            if self._page_seq[page] > seq:
                yield self.base + page * PAGE_SIZE

    def dirty_page_count(self) -> int:
        if not self._cleared_once:
            return self.num_pages
        return len(self._dirty)
