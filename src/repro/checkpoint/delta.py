"""Incremental checkpoints: dirty pages + changed records since a baseline.

A full image records each mapping's monotonic ``write_seq`` (the same
sequencing the update's trace memo stamps, deliberately disjoint from
the update-time soft-dirty bits).  A delta then ships exactly the
pages ``PageTracker.pages_written_since`` reports, plus the
fd/allocator/listener records whose serialized form changed, plus —
always — the source tree's ``TreeFingerprint``, so the standby can
verify every applied delta end to end.

Deltas are chained: ``seq`` numbers count up from the base image and a
standby must apply them gaplessly (CheckSync semantics — a dropped or
reordered delta makes the standby *stale*, and only the next full image
resyncs it).  If the mapping set itself changed since the baseline
(fork/exit/mmap), ``capture_delta`` returns ``None`` — the caller cuts
a fresh full image instead of describing structural change in a delta.

Wire format mirrors the image: ``b"MCRDELTA"`` + u32 version + u32 meta
length + meta JSON + meta CRC + page payload blob (offsets in meta,
whole blob CRC'd).  ``DeltaCheckpoint.decode`` raises ``ImageError``
(section ``"delta"``) on any damage, and nothing else: a meta that passes
its CRC but is not an object, or lacks or mistypes a key a consumer
reads, is refused naming the key.
"""

from __future__ import annotations

import json
import struct
import zlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.errors import ImageError
from repro.mcr.config import MCRConfig
from repro.mcr.faults import TreeFingerprint, fire
from repro.mem.pages import PAGE_SIZE
from repro.checkpoint.image import (
    RECORD_SHAPE,
    CheckpointImage,
    _process_record,
    listener_records,
)

DELTA_MAGIC = b"MCRDELTA"
DELTA_VERSION = 1
_HEADER = struct.Struct("<8sII")

# The meta keys a consumer reads without asking, and their JSON types: a
# meta that passes its CRC but lacks or mistypes one is refused by name.
_META_FIELDS = (
    ("seq", int),
    ("base_image_id", str),
    ("pages", list),
    ("pages_length", int),
    ("pages_crc32", int),
    ("records", dict),
    ("fingerprint", dict),
)

# Virtual-time cost of serializing one delta byte (same order as the
# full-image cost; deltas are small so the pause is microseconds).
DELTA_BYTE_NS = 1


def _record_crc(record: Dict[str, Any]) -> int:
    return zlib.crc32(json.dumps(record, sort_keys=True).encode())


def _grafted(record: Dict[str, Any]) -> Dict[str, Any]:
    """The part of a process record a delta ships and a graft overlays."""
    return {key: record[key] for key in RECORD_SHAPE}


class DeltaBaseline:
    """What the last checkpoint (full or delta) saw: seqs + record CRCs."""

    def __init__(self, image: CheckpointImage) -> None:
        self.image_id = image.image_id
        self.seq = 0
        # (pid, mapping base) -> write_seq at last checkpoint.
        self.mapping_seqs: Dict[Tuple[int, int], int] = {}
        # pid -> CRC of the last-shipped per-process record.
        self.record_crcs: Dict[int, int] = {}
        self.listeners_crc = _record_crc({"listeners": image.meta["listeners"]})
        for record in image.meta["processes"]:
            self.record_crcs[record["pid"]] = _record_crc(_grafted(record))
            for entry in record["mappings"]:
                self.mapping_seqs[(record["pid"], entry["base"])] = entry["write_seq"]


class DeltaCheckpoint:
    """One incremental checkpoint, streamable to a warm standby."""

    def __init__(self, meta: Dict[str, Any], pages_blob: bytes) -> None:
        self.meta = meta
        self.pages_blob = pages_blob

    @property
    def seq(self) -> int:
        return self.meta["seq"]

    @property
    def base_image_id(self) -> str:
        return self.meta["base_image_id"]

    @property
    def fingerprint(self) -> TreeFingerprint:
        return TreeFingerprint.from_dict(self.meta["fingerprint"])

    def total_bytes(self) -> int:
        return len(self.pages_blob)

    def encode(self) -> bytes:
        meta_blob = json.dumps(self.meta, sort_keys=True).encode()
        return b"".join(
            [
                _HEADER.pack(DELTA_MAGIC, DELTA_VERSION, len(meta_blob)),
                meta_blob,
                struct.pack("<I", zlib.crc32(meta_blob)),
                self.pages_blob,
            ]
        )

    @classmethod
    def decode(cls, data: bytes) -> "DeltaCheckpoint":
        if len(data) < _HEADER.size:
            raise ImageError("delta", "truncated delta header")
        magic, version, meta_len = _HEADER.unpack_from(data)
        if magic != DELTA_MAGIC:
            raise ImageError("delta", f"bad magic {magic!r}")
        if version != DELTA_VERSION:
            raise ImageError("delta", f"unknown delta format {version}")
        meta_end = _HEADER.size + meta_len
        if len(data) < meta_end + 4:
            raise ImageError("delta", "truncated before end of meta")
        meta_blob = data[_HEADER.size:meta_end]
        (crc,) = struct.unpack_from("<I", data, meta_end)
        if zlib.crc32(meta_blob) != crc:
            raise ImageError("delta", "meta CRC mismatch")
        try:
            meta = json.loads(meta_blob)
        except ValueError as error:
            raise ImageError("delta", f"undecodable meta JSON: {error}") from None
        if not isinstance(meta, dict):
            raise ImageError("delta", "meta is not an object")
        for field, kind in _META_FIELDS:
            if type(meta.get(field)) is not kind:
                raise ImageError("delta", f"missing or ill-typed {field!r} in meta")
        blob = data[meta_end + 4:]
        if len(blob) != meta["pages_length"] or zlib.crc32(blob) != meta["pages_crc32"]:
            raise ImageError("delta", "page payload truncated or corrupt")
        return cls(meta, blob)


@contextmanager
def hold_quiesced(node: Any, config: Optional[MCRConfig] = None) -> Iterator[None]:
    """Park ``node``'s tree at the quiescence barrier for the block's duration.

    The primitive a planned migration's stop-and-copy is built from: the
    caller quiesces once, then cuts the final delta, streams it, and
    promotes the target *while the source tree is still parked*, so no
    write can race the copy.  The barrier is always released on exit —
    an abort mid-block resumes the source serving exactly where it
    stopped (a failed migration never takes the primary down).
    """
    config = config or node.session.config
    with node.scope():
        protocol = node.session.quiescence
        protocol.request()
        try:
            protocol.wait(node.root, config=config)
            yield
        finally:
            protocol.release()


def capture_delta(
    node: Any,
    baseline: DeltaBaseline,
    config: Optional[MCRConfig] = None,
) -> Optional[DeltaCheckpoint]:
    """Quiesce ``node`` and cut the next delta against ``baseline``.

    Returns ``None`` when the tree's shape changed (new/gone process or
    mapping) — the caller must cut a full image to resync.  Advances the
    baseline on success, so consecutive calls chain gaplessly.
    """
    config = config or node.session.config
    with hold_quiesced(node, config):
        return capture_delta_locked(node, baseline, config)


def capture_delta_locked(
    node: Any,
    baseline: DeltaBaseline,
    config: Optional[MCRConfig] = None,
) -> Optional[DeltaCheckpoint]:
    """Cut the next delta while the caller already holds the barrier.

    ``capture_delta`` wraps this in its own ``hold_quiesced``; callers
    that keep the tree parked across the capture *and* what follows
    (stop-and-copy: capture, stream, apply, promote) call this directly
    inside their own ``hold_quiesced`` block.
    """
    config = config or node.session.config
    with node.scope():
        with obs.span("checkpoint.delta"):
            return _capture_delta_quiesced(node, baseline, config)


def _capture_delta_quiesced(
    node: Any,
    baseline: DeltaBaseline,
    config: Optional[MCRConfig],
) -> Optional[DeltaCheckpoint]:
    fire(config, "checkpoint.delta")
    kernel = node.kernel
    live_keys = set()
    pages: List[Dict[str, Any]] = []
    blob_parts: List[bytes] = []
    offset = 0
    records: Dict[str, Any] = {}
    for process in node.root.tree():
        record = _process_record(process)
        for entry in record["mappings"]:
            live_keys.add((process.pid, entry["base"]))
        if any(
            (process.pid, entry["base"]) not in baseline.mapping_seqs
            for entry in record["mappings"]
        ):
            return None  # structural change: resync with a full image
        for mapping in sorted(process.space.mappings(), key=lambda m: m.base):
            seen = baseline.mapping_seqs[(process.pid, mapping.base)]
            for page_base in mapping.tracker.pages_written_since(seen):
                length = min(PAGE_SIZE, mapping.base + mapping.size - page_base)
                blob = bytes(process.space.view(page_base, length))
                pages.append(
                    {
                        "pid": process.pid,
                        "mapping_base": mapping.base,
                        "address": page_base,
                        "offset": offset,
                        "length": length,
                    }
                )
                blob_parts.append(blob)
                offset += length
        shipped = _grafted(record)
        if _record_crc(shipped) != baseline.record_crcs.get(process.pid):
            records[str(process.pid)] = shipped
    if live_keys != set(baseline.mapping_seqs):
        return None  # a mapping (or whole process) disappeared
    listeners = listener_records(kernel.net)
    listeners_crc = _record_crc({"listeners": listeners})
    pages_blob = b"".join(blob_parts)
    meta: Dict[str, Any] = {
        "seq": baseline.seq + 1,
        "base_image_id": baseline.image_id,
        "captured_ns": kernel.clock.now_ns,
        "pages": pages,
        "pages_length": len(pages_blob),
        "pages_crc32": zlib.crc32(pages_blob),
        "records": records,
        "listeners": listeners if listeners_crc != baseline.listeners_crc else None,
        "fingerprint": TreeFingerprint.capture(kernel, node.root).to_dict(),
    }
    delta = DeltaCheckpoint(meta, pages_blob)
    # Advance the baseline only once the delta exists: a fault raised
    # above leaves the baseline untouched, so the retried delta covers
    # the same pages again (at-least-once, idempotent page grafts).
    baseline.seq = meta["seq"]
    baseline.listeners_crc = listeners_crc
    for process in node.root.tree():
        record = _process_record(process)
        baseline.record_crcs[process.pid] = _record_crc(_grafted(record))
        for entry in record["mappings"]:
            baseline.mapping_seqs[(process.pid, entry["base"])] = entry["write_seq"]
    pause_ns = len(pages_blob) * DELTA_BYTE_NS
    kernel.clock.advance(pause_ns)
    obs.incr("checkpoint.deltas")
    obs.incr("checkpoint.delta_bytes", len(pages_blob))
    obs.emit(
        "checkpoint.delta_cut",
        seq=delta.seq,
        pages=len(pages),
        bytes=len(pages_blob),
    )
    return delta
