"""Span-coalescing memory writer for the transfer engine.

``codec.write_value`` emits one small ``write_bytes`` per leaf field — a
struct with forty scalar members costs forty mapping lookups, forty slice
assignments, and forty page-tracker updates to materialize one object.
:class:`SpanWriter` sits between the codec and the destination address
space (it satisfies the same ``MemoryView`` protocol) and coalesces every
run of contiguous writes into a single span, emitted with one real
``write_bytes`` (one slice assignment + one ``note_write``).

Correctness is positional, not semantic: a write that is not exactly
adjacent to the pending span flushes the span first, so the destination
receives the same bytes in the same order as the per-word path —
byte-for-byte identical final memory, identical dirty-page transitions
(the union of bytes written is unchanged), property-tested in
``tests/test_scan_vectorized.py``.

An object whose type did not change needs no codec: decoding, transforming
and re-encoding it reproduces its bytes except in the pointer slots, and
the spans the writer would emit are a property of the type
(``TypeDesc.span_program``).  ``move_unchanged`` is that round trip as one
read and one write per span — same bytes, same ``write_bytes`` sequence,
held against the decoded path in ``tests/test_transfer_plan.py``.
"""

from __future__ import annotations

import struct

from repro import obs
from repro.types.descriptors import SpanProgram

_WORD = struct.Struct("<Q")


class SpanWriter:
    """Coalesce contiguous ``write_bytes`` calls into bulk spans."""

    __slots__ = ("_space", "_start", "_buf", "writes_absorbed", "spans_emitted", "bytes_written")

    def __init__(self, space) -> None:
        self._space = space
        self._start: int = 0
        self._buf: bytearray = bytearray()
        self.writes_absorbed = 0
        self.spans_emitted = 0
        self.bytes_written = 0

    # -- MemoryView protocol ------------------------------------------------------

    def write_bytes(self, address: int, data: bytes) -> None:
        self.writes_absorbed += 1
        buf = self._buf
        if buf and address == self._start + len(buf):
            buf += data
            return
        self.flush()
        self._start = address
        self._buf = bytearray(data)

    # -- span emission ------------------------------------------------------------

    def flush(self) -> None:
        """Emit the pending span (if any) as one real write."""
        if not self._buf:
            return
        self._space.write_bytes(self._start, bytes(self._buf))
        self.spans_emitted += 1
        self.bytes_written += len(self._buf)
        self._buf = bytearray()

    def close(self) -> None:
        """Flush and publish span-level counters to the active collector."""
        self.flush()
        _publish(self.writes_absorbed, self.spans_emitted, self.bytes_written)


def _publish(leaves: int, spans: int, written: int) -> None:
    collector = obs.ACTIVE
    if collector is None:
        return
    counters = collector.counters
    counters.incr("transfer.span_writes_absorbed", leaves)
    counters.incr("transfer.spans_emitted", spans)
    counters.incr("transfer.span_bytes", written)


def move_unchanged(
    program: SpanProgram, source, old_base: int, target, new_base: int, size: int, translate
) -> None:
    """Move one object of an unchanged type from ``source`` to ``target``.

    What ``read_value`` → ``transform_value`` → ``write_value`` through a
    ``SpanWriter`` does when both signatures are equal: every pointer slot
    is translated, in leaf order (a null function pointer is not asked
    about), before the first write — so a conflict still leaves the new
    object untouched — and padding is never written.
    """
    leaves, slots, runs = program
    data = source.read_bytes(old_base, size)
    if slots:
        patched = bytearray(data)
        for offset, is_function in slots:
            (word,) = _WORD.unpack_from(patched, offset)
            if word or not is_function:
                _WORD.pack_into(patched, offset, translate(word) & 0xFFFFFFFFFFFFFFFF)
        data = bytes(patched)
    written = 0
    for offset, length in runs:
        target.write_bytes(new_base + offset, data[offset : offset + length])
        written += length
    _publish(leaves, len(runs), written)
