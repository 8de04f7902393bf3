"""Incremental checkpoints: a delta is an image of the pages written since.

A full image records each mapping's monotonic ``write_seq`` (the same
sequencing the update's trace memo stamps, deliberately disjoint from
the update-time soft-dirty bits).  A delta is then a ``CheckpointImage``
in the image's own container (same header, meta CRC and per-section
CRCs; ``image.py``): one section per mapping with pages written since
the baseline (``PageTracker.pages_written_since``, merged into runs),
named as the image names that mapping's section, so it says which
``(pid, mapping base)`` it lands in.  Its meta (``DELTA_SHAPE``) carries
the fd/allocator records whose serialized form changed, the listener
table and — always — the source tree's ``TreeFingerprint``, so the
standby can verify every applied delta end to end.

Deltas are chained: ``seq`` numbers count up from the base image and a
standby must apply them gaplessly (CheckSync semantics — a dropped or
reordered delta makes the standby *stale*, and only the next full image
resyncs it).  If the mapping set itself changed since the baseline
(fork/exit/mmap), ``capture_delta`` returns ``None`` — the caller cuts
a fresh full image instead of describing structural change in a delta.

A delta's size is its payload, ``stored_bytes()``: the page bytes it
carries, which is what the virtual clock charges for cutting, streaming
and applying it.
"""

from __future__ import annotations

import json
import zlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

from repro import obs
from repro.mcr.config import MCRConfig
from repro.mcr.faults import TreeFingerprint, fire
from repro.mem.pages import PAGE_SIZE, page_runs
from repro.checkpoint.image import (
    LISTENERS_SHAPE,
    RECORD_SHAPE,
    CheckpointImage,
    Section,
    listener_records,
    section_name,
    state_record,
)

# Everything of a delta's meta, as the standby checks it before reading
# any of it (the fingerprint is ``check_fingerprint``'s): ``records`` maps
# a pid, as text, to the ``state_record`` of a process that changed.
DELTA_SHAPE = {
    "seq": int,
    "base_image_id": str,
    "captured_ns": int,
    "records": {str: RECORD_SHAPE},
    "listeners": LISTENERS_SHAPE,
    "fingerprint": dict,
}

# Virtual-time cost of serializing one delta byte (same order as the
# full-image cost; deltas are small so the pause is microseconds).
DELTA_BYTE_NS = 1


def _record_crc(record: Dict[str, Any]) -> int:
    return zlib.crc32(json.dumps(record, sort_keys=True).encode())


class DeltaBaseline:
    """What the last checkpoint (full or delta) saw: seqs + record CRCs."""

    def __init__(self, image: CheckpointImage) -> None:
        self.image_id = image.image_id
        self.seq = 0
        # (pid, mapping base) -> write_seq at last checkpoint.
        self.mapping_seqs: Dict[Tuple[int, int], int] = {}
        # pid -> CRC of the last-shipped ``state_record``.
        self.record_crcs: Dict[int, int] = {}
        for record in image.meta["processes"]:
            state = {key: record[key] for key in RECORD_SHAPE}
            self.record_crcs[record["pid"]] = _record_crc(state)
            for entry in record["mappings"]:
                self.mapping_seqs[(record["pid"], entry["base"])] = entry["write_seq"]


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
    with node.scope(), node.session.quiescence.held(node.root, config):
        yield


def capture_delta(
    node: Any,
    baseline: DeltaBaseline,
    config: Optional[MCRConfig] = None,
) -> Optional[CheckpointImage]:
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
) -> Optional[CheckpointImage]:
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
) -> Optional[CheckpointImage]:
    fire(config, "checkpoint.delta")
    kernel = node.kernel
    sections: Dict[str, Section] = {}
    records: Dict[str, Any] = {}
    # What the baseline becomes once this delta exists.
    mapping_seqs: Dict[Tuple[int, int], int] = {}
    record_crcs: Dict[int, int] = {}
    for process in node.root.tree():
        for mapping in process.space.mappings():
            key = (process.pid, mapping.base)
            if key not in baseline.mapping_seqs:
                return None  # structural change: resync with a full image
            mapping_seqs[key] = mapping.tracker.write_seq
            pages = [
                (address - mapping.base) // PAGE_SIZE
                for address in mapping.tracker.pages_written_since(baseline.mapping_seqs[key])
            ]
            if pages:
                name = section_name(process.pid, mapping.name, mapping.base)
                sections[name] = Section(*mapping.packed(tuple(page_runs(pages))))
        state = state_record(process)
        record_crcs[process.pid] = _record_crc(state)
        if record_crcs[process.pid] != baseline.record_crcs.get(process.pid):
            records[str(process.pid)] = state
    if mapping_seqs.keys() != baseline.mapping_seqs.keys():
        return None  # a mapping (or whole process) disappeared
    meta: Dict[str, Any] = {
        "seq": baseline.seq + 1,
        "base_image_id": baseline.image_id,
        "captured_ns": kernel.clock.now_ns,
        "records": records,
        "listeners": listener_records(kernel.net),
        "fingerprint": TreeFingerprint.capture(kernel, node.root).to_dict(),
    }
    delta = CheckpointImage(meta, sections)
    # Advance the baseline only once the delta exists: a fault raised
    # above leaves the baseline untouched, so the retried delta covers
    # the same pages again (at-least-once, idempotent page grafts).
    baseline.seq = meta["seq"]
    baseline.mapping_seqs = mapping_seqs
    baseline.record_crcs = record_crcs
    payload = delta.stored_bytes()
    kernel.clock.advance(payload * DELTA_BYTE_NS)
    obs.incr("checkpoint.deltas")
    obs.incr("checkpoint.delta_bytes", payload)
    obs.emit(
        "checkpoint.delta_cut",
        seq=meta["seq"],
        pages=payload // PAGE_SIZE,
        bytes=payload,
    )
    return delta
