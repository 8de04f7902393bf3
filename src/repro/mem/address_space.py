"""Simulated 64-bit virtual address spaces.

An ``AddressSpace`` holds disjoint ``Mapping``s (data segment, heap, stacks,
anonymous mmaps, "shared libraries"), each backed by a private anonymous
host ``mmap``.  Pointers stored by simulated programs are genuine 8-byte
little-endian words inside those stores, which is what makes MCR's precise
tracing, conservative likely-pointer scanning, and relocation *real*
operations here rather than mock-ups.

Layout conventions (documented, not load-bearing):

* ``0x0000_0060_0000`` — static data segment(s)
* ``0x0000_0100_0000`` — heap (ptmalloc arena, brk-style growth)
* ``0x0000_7000_0000`` — anonymous mmap region (grows up)
* ``0x0000_7f00_0000`` — shared-library images

Mappings are demand-paged.  The host OS backs a store with demand-zero
pages, so a page nobody wrote costs no memory — reading it (an image
section, a scan window) maps the shared zero page — fork() stays eager but
copies only the pages in ``tracker.ever_written``, and ``Mapping.crc32``
reads only those, as do the checkpoint image's ``Mapping.packed`` and
``Mapping.replace``.  That rests on one invariant: **a page not in
``ever_written`` is all zero**.  The only writers of a store are therefore
``write_bytes``/``write_word`` (tracked) and ``Mapping.load`` /
``Mapping.replace`` (checkpoint grafts); ``view()`` windows are read-only.
A store is made only by ``Mapping.__init__`` and destroyed only by
``AddressSpace.release`` (exit, crash, or the image ``exec`` replaces),
which closes every store and leaves the space empty: a dead image holds
no pages, and a late read faults as unmapped memory.
"""

from __future__ import annotations

import bisect as _bisect
import mmap as _mmap
import struct as _struct
import zlib as _zlib
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import MemoryFault
from repro.mem.pages import PAGE_SIZE, PageTracker

DATA_BASE = 0x0000_0060_0000
HEAP_BASE = 0x0000_0100_0000
MMAP_BASE = 0x0000_7000_0000
LIB_BASE = 0x0000_7F00_0000


# Ascending, page-aligned ``[start, stop)`` byte offsets into one store.
Runs = Sequence[Tuple[int, int]]
_ZERO_PAGE = bytes(PAGE_SIZE)


def _round_up_pages(size: int) -> int:
    return ((size + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE


# CRC-32 is linear over GF(2): feeding ``n`` zero bytes multiplies the
# (inverted) register by x^(8n) modulo the polynomial, so a run of zeros
# folds in without being read.  Polynomials are bit-reflected as in zlib:
# bit 31 is x^0 and 0xEDB88320 is the modulus.
_CRC_POLY = 0xEDB88320


def _gf2_mul(a: int, b: int) -> int:
    """``a * b`` modulo the CRC-32 polynomial."""
    product = 0
    while a:
        if a & 0x80000000:
            product ^= b
        a = (a << 1) & 0xFFFFFFFF
        b = (b >> 1) ^ _CRC_POLY if b & 1 else b >> 1
    return product


@lru_cache(maxsize=4096)  # forked workers share their gap lengths
def _x8n_mod_poly(n: int) -> int:
    """x^(8n) modulo the CRC-32 polynomial, by square-and-multiply."""
    power, square = 0x80000000, 0x00800000  # x^0, x^8
    while n:
        if n & 1:
            power = _gf2_mul(square, power)
        square = _gf2_mul(square, square)
        n >>= 1
    return power


def _crc32_zeros(crc: int, n: int) -> int:
    """``zlib.crc32(bytes(n), crc)`` without materializing the zeros."""
    if not n:
        return crc
    return _gf2_mul(_x8n_mod_poly(n), crc ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


class Mapping:
    """One contiguous region of simulated memory."""

    def __init__(
        self,
        base: int,
        size: int,
        name: str,
        kind: str,
        tracker: Optional[PageTracker] = None,
    ) -> None:
        self.base = base
        self.size = _round_up_pages(size)
        self.end = base + self.size  # stored: a mapping never moves or grows
        self.name = name
        self.kind = kind  # "data" | "heap" | "stack" | "mmap" | "lib"
        # Demand-zero store.  Private, not shared: a shared anonymous map
        # is shmem, where even a *read* of an untouched page allocates it.
        self.data = _mmap.mmap(
            -1, self.size, flags=_mmap.MAP_PRIVATE | _mmap.MAP_ANONYMOUS
        )
        self.tracker = tracker if tracker is not None else PageTracker(base, self.size)

    def clone(self) -> "Mapping":
        """fork(): a fresh store holding copies of the resident pages only."""
        twin = Mapping(self.base, self.size, self.name, self.kind, self.tracker.clone())
        with memoryview(self.data) as source:
            for start, stop in self.tracker.resident_runs():
                twin.data[start:stop] = source[start:stop]
        return twin

    def crc32(self, crc: int = 0) -> int:
        """``zlib.crc32`` of the whole store, reading only resident pages.

        ``crc`` is the running value to continue from, as in ``zlib``.
        """
        cursor = 0
        with memoryview(self.data) as data:
            for start, stop in self.tracker.resident_runs():
                crc = _zlib.crc32(data[start:stop], _crc32_zeros(crc, start - cursor))
                cursor = stop
        return _crc32_zeros(crc, self.size - cursor)

    def packed(self, runs: Runs) -> Tuple[Runs, bytes]:
        """``runs`` and their bytes, back to back (checkpoint capture)."""
        data = self.data
        return runs, b"".join([data[start:stop] for start, stop in runs])

    def replace(self, runs: Runs, payload: bytes) -> None:
        """Make the whole store what ``packed`` read (image restore).

        ``payload`` holds the bytes of ``runs`` back to back; every byte
        outside them becomes zero, which only takes writing where this
        store has a resident page the image does not.  Like ``load``, not
        a program write: only residency and the graft epoch move.
        """
        self.tracker.graft_epoch += 1
        resident = self.tracker.ever_written
        stale = set(resident)
        cursor = 0
        for start, stop in runs:
            self.data[start:stop] = payload[cursor : cursor + stop - start]
            cursor += stop - start
            pages = range(start // PAGE_SIZE, stop // PAGE_SIZE)
            stale.difference_update(pages)
            resident.update(pages)
        for page in stale:
            self.data[page * PAGE_SIZE : (page + 1) * PAGE_SIZE] = _ZERO_PAGE

    def load(self, offset: int, payload: bytes) -> None:
        """Overlay checkpoint bytes at ``offset`` (delta graft).

        Marks resident exactly the pages that receive non-zero bytes or
        were resident already; the rest are zero on both sides and stay
        untouched.  A graft is not a program write: soft-dirty bits,
        write sequencing and fault counts do not move — only the graft
        epoch does, so a memoized trace of these bytes is not reused.
        """
        self.tracker.graft_epoch += 1
        resident = self.tracker.ever_written
        end = offset + len(payload)
        for page in range(offset // PAGE_SIZE, (end + PAGE_SIZE - 1) // PAGE_SIZE):
            start = max(page * PAGE_SIZE, offset)
            stop = min((page + 1) * PAGE_SIZE, end)
            chunk = payload[start - offset : stop - offset]
            if page in resident or chunk.count(0) != len(chunk):
                self.data[start:stop] = chunk
                resident.add(page)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Mapping {self.name} [0x{self.base:x}, 0x{self.end:x}) {self.kind}>"


class AddressSpace:
    """A process's virtual memory: disjoint mappings + access methods."""

    def __init__(self) -> None:
        self._mappings: List[Mapping] = []
        self._bases: List[int] = []  # sorted mapping bases, parallel to _mappings
        self._hit: Optional[Mapping] = None  # last mapping_at result (hot-path cache)
        self._mmap_cursor = MMAP_BASE
        self._lib_cursor = LIB_BASE
        self.soft_dirty_faults = 0  # total write-protect faults taken

    # -- mapping management --------------------------------------------

    def map(
        self,
        size: int,
        address: Optional[int] = None,
        name: str = "anon",
        kind: str = "mmap",
        fixed: bool = False,
    ) -> Mapping:
        """Create a mapping; MAP_FIXED semantics when ``fixed`` is set."""
        size = _round_up_pages(size)
        if fixed:
            if address is None:
                raise ValueError("fixed mapping requires an address")
            base = address
        elif address is not None:
            base = address
        elif kind == "lib":
            base = self._lib_cursor
            self._lib_cursor += size + PAGE_SIZE  # guard page gap
        else:
            base = self._mmap_cursor
            self._mmap_cursor += size + PAGE_SIZE
        if base % PAGE_SIZE:
            raise ValueError(f"mapping base not page-aligned: 0x{base:x}")
        overlapping = self._find_overlap(base, size)
        if overlapping is not None:
            raise MemoryFault(base, f"mapping overlaps {overlapping.name}")
        mapping = Mapping(base, size, name, kind)
        self._insert(mapping)
        return mapping

    def release(self) -> None:
        """exit(): destroy every store and forget every mapping.

        The one place a store is closed, as ``Mapping.__init__`` is the
        one place one is made.  The space is left empty, so a late reader
        gets the ``MemoryFault`` of unmapped memory, never a dead image.
        """
        for mapping in self._mappings:
            mapping.data.close()
        self._mappings = []
        self._bases = []
        self._hit = None

    def _insert(self, mapping: Mapping) -> None:
        index = _bisect.bisect_left(self._bases, mapping.base)
        self._mappings.insert(index, mapping)
        self._bases.insert(index, mapping.base)

    def _find_overlap(self, base: int, size: int) -> Optional[Mapping]:
        end = base + size
        for m in self._mappings:
            if m.base < end and base < m.end:
                return m
        return None

    def mapping_at(self, address: int) -> Optional[Mapping]:
        hit = self._hit
        if hit is not None and hit.base <= address < hit.end:
            return hit
        index = _bisect.bisect_right(self._bases, address) - 1
        if index >= 0:
            mapping = self._mappings[index]
            if address < mapping.end:
                self._hit = mapping
                return mapping
        return None

    def mappings(self, kind: Optional[str] = None) -> Iterator[Mapping]:
        for m in self._mappings:
            if kind is None or m.kind == kind:
                yield m

    # -- byte access (the MemoryView protocol) --------------------------

    def _unmapped_detail(self, address: int) -> str:
        """Describe where an unmapped address sits relative to mappings.

        Reads/writes that start in a guard-page gap between mappings are a
        common instrumentation bug; naming the neighbours turns "read of
        unmapped memory" into something actionable.
        """
        index = _bisect.bisect_right(self._bases, address) - 1
        below = self._mappings[index] if index >= 0 else None
        above = self._mappings[index + 1] if index + 1 < len(self._mappings) else None
        if below is not None and above is not None:
            return (
                f" (in the gap between '{below.name}' ending at 0x{below.end:x} "
                f"and '{above.name}' starting at 0x{above.base:x})"
            )
        if below is not None:
            return f" (0x{address - below.end:x} bytes past '{below.name}' ending at 0x{below.end:x})"
        if above is not None:
            return f" (0x{above.base - address:x} bytes before '{above.name}' at 0x{above.base:x})"
        return " (no mappings exist)"

    def _locate(self, address: int, size: int, verb: str) -> Mapping:
        """The mapping backing ``[address, address+size)``, or MemoryFault."""
        mapping = self._hit  # the last hit, checked here to save the call
        if mapping is None or not mapping.base <= address < mapping.end:
            mapping = self.mapping_at(address)
            if mapping is None:
                raise MemoryFault(
                    address,
                    f"{verb} of unmapped memory{self._unmapped_detail(address)}",
                )
        if address + size > mapping.end:
            raise MemoryFault(address + size, f"{verb} crosses mapping end")
        return mapping

    def read_bytes(self, address: int, size: int) -> bytes:
        mapping = self._locate(address, size, "read")
        offset = address - mapping.base
        return mapping.data[offset : offset + size]

    def read_cstr(self, address: int, limit: int) -> bytes:
        """The bytes at ``address`` up to the first NUL or ``limit`` of them.

        One search per mapping the string touches — one, unless it runs
        into an adjacent mapping; a string that runs off the end of its
        last mapping faults there, exactly as reading it byte by byte
        would.
        """
        out = b""
        while len(out) < limit:
            cursor = address + len(out)
            mapping = self._locate(cursor, 1, "read")
            start = cursor - mapping.base
            stop = min(start + limit - len(out), mapping.size)
            nul = mapping.data.find(b"\x00", start, stop)
            out += mapping.data[start : stop if nul < 0 else nul]
            if nul >= 0:
                break
        return out

    def view(self, address: int, size: int) -> memoryview:
        """A zero-copy read window over ``[address, address+size)``.

        The window must lie inside a single mapping.  Callers that decode
        many words (the conservative scanner) cast the view instead of
        materializing per-word ``bytes``.
        """
        mapping = self._locate(address, size, "view")
        offset = address - mapping.base
        return memoryview(mapping.data)[offset : offset + size].toreadonly()

    def write_bytes(self, address: int, data: bytes) -> None:
        size = len(data)
        mapping = self._locate(address, size, "write")
        offset = address - mapping.base
        mapping.data[offset : offset + size] = data
        self.soft_dirty_faults += mapping.tracker.note_write(address, size)

    def write_table(self, address: int, stride: int, payloads: Sequence[bytes]) -> None:
        """``write_bytes(address + j * stride, payloads[j])`` for each ``j``
        in order (none overlapping), with one lookup and one tracker pass."""
        end = address + (len(payloads) - 1) * stride + len(payloads[-1])
        mapping = self._locate(address, end - address, "write")
        data = mapping.data
        offset = address - mapping.base
        for payload in payloads:
            data[offset : offset + len(payload)] = payload
            offset += stride
        self.soft_dirty_faults += mapping.tracker.note_table(address, stride, payloads)

    def read_word(self, address: int) -> int:
        mapping = self._locate(address, 8, "read")
        return _struct.unpack_from("<Q", mapping.data, address - mapping.base)[0]

    def write_word(self, address: int, value: int) -> None:
        mapping = self._locate(address, 8, "write")
        _struct.pack_into(
            "<Q", mapping.data, address - mapping.base, value & 0xFFFFFFFFFFFFFFFF
        )
        self.soft_dirty_faults += mapping.tracker.note_write(address, 8)

    # -- soft-dirty interface (CRIU-style) -------------------------------

    def clear_soft_dirty(self) -> None:
        """Mark every page in every mapping soft-clean."""
        for m in self._mappings:
            m.tracker.clear()

    def dirty_page_count(self) -> int:
        return sum(m.tracker.dirty_page_count() for m in self._mappings)

    # -- footprint / fork -------------------------------------------------

    def resident_bytes(self) -> int:
        """Demand-paged footprint: pages ever written (the RSS analogue)."""
        return sum(len(m.tracker.ever_written) * PAGE_SIZE for m in self._mappings)

    def mapped_bytes(self) -> int:
        """Total mapped virtual bytes (the VSZ analogue)."""
        return sum(m.size for m in self._mappings)

    def clone(self) -> "AddressSpace":
        """fork(): duplicate all mappings (eager copy of the resident pages)."""
        twin = AddressSpace()
        twin._mmap_cursor = self._mmap_cursor
        twin._lib_cursor = self._lib_cursor
        twin._mappings = [m.clone() for m in self._mappings]
        twin._bases = [m.base for m in twin._mappings]
        return twin
