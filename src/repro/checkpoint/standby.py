"""Warm standby: a restored, barrier-parked twin fed by the delta stream.

``WarmStandby`` wraps a node produced by ``restore_image`` and keeps it
continuously up to date: each ``DeltaCheckpoint`` arriving over the
(simulated) ``StandbyChannel`` is decoded, sequence-checked, and grafted
into the still-quiesced tree.  Failover is ``promote()``: verify the
standby's live ``TreeFingerprint`` against the last applied checkpoint's
expected fingerprint, release the barrier, start serving.

Staleness semantics (CheckSync-style bounded divergence): a corrupt,
dropped, or out-of-order delta marks the standby *stale* — it keeps its
last consistent state and ignores further deltas until ``apply_full``
resyncs it from the next full image.  A stale standby can still be
promoted (it serves the last consistent checkpoint; the failover driver
reports how many sequences of work that loses), but a standby whose
fingerprint does not match its expectation can never be — that is a
``PromotionError`` plus a black-box dump stamped with the image id and
last-applied delta sequence.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import obs
from repro.errors import ImageError, PromotionError
from repro.fleet.node import Node
from repro.mcr.config import MCRConfig
from repro.mcr.faults import TreeFingerprint, fire
from repro.checkpoint.delta import DeltaCheckpoint
from repro.checkpoint.image import (
    LISTENERS_SHAPE,
    RECORD_SHAPE,
    CheckpointImage,
    check_fingerprint,
    check_shape,
)
from repro.checkpoint.restore import (
    _validate_heap,
    graft_listeners,
    graft_record,
    restore_image,
    resume_node,
)

# Virtual-time costs of the replication channel (ns).
STREAM_BYTE_NS = 2        # serialize + ship one byte primary -> standby
APPLY_BYTE_NS = 1         # graft one received byte into the standby
PROMOTE_BASE_NS = 3_000_000  # barrier release + VIP flip on promotion


class StandbyChannel:
    """The simulated replication link: an ordered queue of encoded deltas.

    ``send`` fires the ``stream.send`` fault site — an injected death
    drops the delta on the floor (the bytes never reach the standby),
    which is exactly the gap ``WarmStandby.apply`` then detects.
    """

    def __init__(self) -> None:
        self.queue: List[bytes] = []
        self.sent = 0
        self.dropped = 0
        self.bytes_sent = 0

    def send(self, delta: DeltaCheckpoint, config: Optional[MCRConfig] = None) -> int:
        blob = delta.encode()
        try:
            fire(config, "stream.send")
        except BaseException:
            self.dropped += 1
            raise
        self.queue.append(blob)
        self.sent += 1
        self.bytes_sent += len(blob)
        obs.incr("checkpoint.stream_bytes", len(blob))
        return len(blob) * STREAM_BYTE_NS

    def drain(self) -> List[bytes]:
        blobs, self.queue = self.queue, []
        return blobs


class WarmStandby:
    """A quiesced twin of the primary, promotable on failure."""

    def __init__(
        self,
        node: Node,
        image: CheckpointImage,
        config: Optional[MCRConfig] = None,
    ) -> None:
        self.node = node
        self.config = config
        self.image_id = image.image_id
        self.applied_seq = 0
        self.stale = False
        self.promoted = False
        self.deltas_applied = 0
        self.deltas_rejected = 0
        # What the standby's tree must fingerprint as right now.
        self.expected_fingerprint = image.fingerprint
        self.last_blackbox: Optional[Dict[str, Any]] = None

    @classmethod
    def from_image(
        cls,
        image: CheckpointImage,
        node_id: int = 1,
        config: Optional[MCRConfig] = None,
    ) -> "WarmStandby":
        node = restore_image(image, node_id=node_id, config=config)
        return cls(node, image, config=config)

    # -- the continuously-applied stream --------------------------------------

    def apply(self, blob: bytes) -> bool:
        """Graft one encoded delta; returns True when applied cleanly.

        Any damage or discontinuity marks the standby stale instead of
        raising: the replication path must never take the standby down,
        only bound how fresh it is.
        """
        if self.stale:
            self.deltas_rejected += 1
            return False
        try:
            fire(self.config, "stream.apply")
            delta = DeltaCheckpoint.decode(blob)
            in_sequence = (
                delta.base_image_id == self.image_id and delta.seq == self.applied_seq + 1
            )
            # A delta that is not next is a gap, whatever else is wrong with it.
            processes = self._validated_targets(delta) if in_sequence else {}
        except Exception as error:  # ImageError, injected faults, ...
            return self._reject(
                "standby.delta_rejected", error=repr(error), applied_seq=self.applied_seq
            )
        if not in_sequence:
            return self._reject(
                "standby.sequence_gap", got_seq=delta.seq, want_seq=self.applied_seq + 1
            )
        self._graft_delta(delta, processes)
        self.applied_seq = delta.seq
        self.expected_fingerprint = delta.fingerprint
        self.deltas_applied += 1
        self.node.kernel.clock.advance(delta.total_bytes() * APPLY_BYTE_NS)
        obs.incr("checkpoint.deltas_applied")
        return True

    def _reject(self, event: str, **fields: Any) -> bool:
        """Count the delta as rejected and go stale; ``apply``'s False."""
        self.deltas_rejected += 1
        self.stale = True
        obs.emit(event, severity="warn", **fields)
        return False

    def _validated_targets(self, delta: DeltaCheckpoint) -> Dict[int, Any]:
        """The live processes by pid, once every page record and every
        ``records`` entry of a well-formed delta is known to land in one:
        a pid of the tree, holding heap / fds / fd_alloc of the shape an
        image's records have (``RECORD_SHAPE``), with the heap ranges an
        image's restore would accept; and its listeners, if any, and its
        fingerprint shaped as an image's.

        Raises ``ImageError("delta", …)`` naming the key otherwise —
        before the first write, so a refused delta leaves the tree as the
        last applied checkpoint left it.
        """
        processes = {p.pid: p for p in self.node.root.tree()}
        for at, page in enumerate(delta.meta["pages"]):
            where = f"pages[{at}]"
            if not isinstance(page, dict):
                raise ImageError("delta", f"{where} is not an object")
            for field in ("pid", "mapping_base", "address", "offset", "length"):
                if type(page.get(field)) is not int or page[field] < 0:
                    raise ImageError("delta", f"missing or ill-typed {field!r} in {where}")
            process = processes.get(page["pid"])
            mapping = process and process.space.mapping_at(page["mapping_base"])
            if mapping is None or mapping.base != page["mapping_base"]:
                raise ImageError(
                    "delta",
                    f"{where}: no 'pid' {page['pid']} with a mapping at "
                    f"'mapping_base' {page['mapping_base']:#x}",
                )
            if not (
                mapping.base <= page["address"] <= mapping.end - page["length"]
                and page["offset"] + page["length"] <= len(delta.pages_blob)
            ):
                raise ImageError(
                    "delta",
                    f"{where}: 'address' / 'offset' + 'length' leave mapping "
                    f"{mapping.name} or the page payload",
                )
        for pid_text, record in delta.meta["records"].items():
            if not (pid_text.isdecimal() and int(pid_text) in processes):
                raise ImageError("delta", f"'records' names pid {pid_text!r}, not in the tree")
            check_shape("delta", f"records[{pid_text!r}]", record, RECORD_SHAPE)
            _validate_heap(processes[int(pid_text)], record, "delta")
        if delta.meta.get("listeners") is not None:
            check_shape("delta", "listeners", delta.meta["listeners"], LISTENERS_SHAPE)
        check_fingerprint("delta", delta.meta["fingerprint"])
        return processes

    def _graft_delta(self, delta: DeltaCheckpoint, processes: Dict[int, Any]) -> None:
        blob = delta.pages_blob
        for page in delta.meta["pages"]:
            process = processes[page["pid"]]
            mapping = process.space.mapping_at(page["mapping_base"])
            mapping.load(
                page["address"] - mapping.base,
                blob[page["offset"]:page["offset"] + page["length"]],
            )
        for pid_text, record in delta.meta["records"].items():
            graft_record(processes[int(pid_text)], record)
        if delta.meta.get("listeners") is not None:
            graft_listeners(self.node.kernel.net, delta.meta["listeners"])

    def resync(self, image: CheckpointImage, node_id: Optional[int] = None) -> None:
        """Replace the standby's tree from a fresh full image (stale exit).

        The new tree is restored before the old one is let go: a failed
        restore raises with the previous tree intact and the standby
        stale, still promotable at its last consistent checkpoint.
        """
        node_id = self.node.node_id if node_id is None else node_id
        try:
            node = restore_image(image, node_id=node_id, config=self.config)
        except BaseException:
            self.stale = True
            raise
        self.node.teardown()
        self.node = node
        self.image_id = image.image_id
        self.applied_seq = 0
        self.stale = False
        self.expected_fingerprint = image.fingerprint
        obs.emit("standby.resynced", image_id=image.image_id)

    # -- failover --------------------------------------------------------------

    def promote(self) -> Node:
        """Verify integrity, release the barrier, and start serving.

        The verification is the restore-side half of the round-trip
        property: the standby's live tree must fingerprint byte-identical
        to the last checkpoint it applied.  A mismatch dumps the flight
        recorder (stamped with image id + delta seq) and raises
        ``PromotionError`` — the failover driver then falls back to a
        cold restore from the last durable image.
        """
        problems: List[str] = []
        with self.node.scope():
            try:
                fire(self.config, "standby.promote")
                live = self.node.fingerprint()
                problems = self.expected_fingerprint.diff(live)
                if problems:
                    raise PromotionError(
                        f"standby diverged from checkpoint seq {self.applied_seq}: "
                        + "; ".join(problems[:4])
                    )
            except BaseException as error:
                self.last_blackbox, _path = self.node.collector.blackbox(
                    "standby.promote_failed",
                    self.config.blackbox_path if self.config is not None else None,
                    failure_site="standby.promote",
                    fingerprint=self.expected_fingerprint.summary(),
                    image_version=self.image_id,
                    last_applied_delta_seq=self.applied_seq,
                    problems=(problems or [repr(error)])[:16],
                )
                raise
        self.node.kernel.clock.advance(PROMOTE_BASE_NS)
        resume_node(self.node)
        self.promoted = True
        obs.incr("checkpoint.promotions")
        obs.emit(
            "standby.promoted",
            image_id=self.image_id,
            applied_seq=self.applied_seq,
            stale=self.stale,
        )
        return self.node
