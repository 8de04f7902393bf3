"""Warm standby: a restored, barrier-parked twin fed by the delta stream.

``WarmStandby`` wraps a node produced by ``restore_image`` and keeps it
continuously up to date: each delta arriving over the (simulated)
``StandbyChannel`` is decoded by ``CheckpointImage.decode`` (a delta is
an image of the pages written since), sequence-checked, validated
against the still-quiesced tree in full, and only then grafted into it.
Failover is ``promote()``: verify the standby's live ``TreeFingerprint``
against the last applied checkpoint's expected fingerprint, release the
barrier, start serving.

Staleness semantics (CheckSync-style bounded divergence): a corrupt,
dropped, or out-of-order delta marks the standby *stale* — it keeps its
last consistent state and ignores further deltas until ``resync``
restores it from the next full image.  A stale standby can still be
promoted (it serves the last consistent checkpoint; the failover driver
reports how many sequences of work that loses), but a standby whose
fingerprint does not match its expectation can never be — that is a
``PromotionError`` plus a black-box dump stamped with the image id and
last-applied delta sequence.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import ImageError, PromotionError
from repro.fleet.node import Node
from repro.mcr.config import MCRConfig
from repro.mcr.faults import fire
from repro.checkpoint.delta import DELTA_SHAPE
from repro.checkpoint.image import (
    CheckpointImage,
    check_fingerprint,
    check_runs,
    check_shape,
    section_name,
)
from repro.checkpoint.restore import (
    _validate_heap,
    graft_listeners,
    graft_record,
    restore_image,
    resume_node,
)

# Virtual-time costs of the replication channel (ns), per payload byte.
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

    def send(self, delta: CheckpointImage, config: Optional[MCRConfig] = None) -> int:
        """Queue ``delta``; returns its stream time, charged per payload byte.

        A streamed byte is a page byte the delta carries, not a byte of
        the container that frames it.
        """
        fire(config, "stream.send")
        self.queue.append(delta.encode())
        obs.incr("checkpoint.stream_bytes", delta.stored_bytes())
        return delta.stored_bytes() * STREAM_BYTE_NS

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
            delta = CheckpointImage.decode(blob)
            meta = delta.meta
            check_shape("meta", "meta", meta, DELTA_SHAPE)
            in_sequence = (
                meta["base_image_id"] == self.image_id
                and meta["seq"] == self.applied_seq + 1
            )
            # A delta that is not next is a gap, whatever else is wrong with it.
            targets = self._validated_targets(delta) if in_sequence else None
        except Exception as error:  # ImageError, injected faults, ...
            return self._reject(
                "standby.delta_rejected", error=repr(error), applied_seq=self.applied_seq
            )
        if targets is None:
            return self._reject(
                "standby.sequence_gap", got_seq=meta["seq"], want_seq=self.applied_seq + 1
            )
        self._graft_delta(delta, *targets)
        self.applied_seq = meta["seq"]
        self.expected_fingerprint = delta.fingerprint
        self.deltas_applied += 1
        self.node.kernel.clock.advance(delta.stored_bytes() * APPLY_BYTE_NS)
        obs.incr("checkpoint.deltas_applied")
        return True

    def _reject(self, event: str, **fields: Any) -> bool:
        """Count the delta as rejected and go stale; ``apply``'s False."""
        self.deltas_rejected += 1
        self.stale = True
        obs.emit(event, severity="warn", **fields)
        return False

    def _validated_targets(
        self, delta: CheckpointImage
    ) -> Tuple[Dict[int, Any], Dict[str, Any]]:
        """The live processes by pid and mappings by section name, once
        every section and ``records`` entry of a delta whose meta has
        ``DELTA_SHAPE`` is known to land in them: each section names a
        mapping of the tree (its pid, name and base, as the image named
        it) and its runs end inside that mapping; each record names a
        pid of the tree, with the heap ranges an image's restore would
        accept; and the fingerprint is shaped as an image's.

        Raises ``ImageError`` naming the section or key otherwise —
        before the first write, so a refused delta leaves the tree as
        the last applied checkpoint left it.
        """
        processes = {p.pid: p for p in self.node.root.tree()}
        mappings = {
            section_name(pid, mapping.name, mapping.base): mapping
            for pid, process in processes.items()
            for mapping in process.space.mappings()
        }
        for name, (runs, payload) in delta.sections.items():
            mapping = mappings.get(name)
            if mapping is None:
                raise ImageError(name, "no mapping of the standby's tree at this pid and base")
            check_runs(name, runs, len(payload), limit=mapping.size)
        for pid_text, record in delta.meta["records"].items():
            if not (pid_text.isdecimal() and int(pid_text) in processes):
                raise ImageError("meta", f"'records' names pid {pid_text!r}, not in the tree")
            _validate_heap(processes[int(pid_text)], record, "meta")
        check_fingerprint("meta", delta.meta["fingerprint"])
        return processes, mappings

    def _graft_delta(
        self, delta: CheckpointImage, processes: Dict[int, Any], mappings: Dict[str, Any]
    ) -> None:
        for name, (runs, payload) in delta.sections.items():
            mapping, cursor = mappings[name], 0
            for start, stop in runs:
                mapping.load(start, bytes(payload[cursor:cursor + stop - start]))
                cursor += stop - start
        for pid_text, record in delta.meta["records"].items():
            graft_record(processes[int(pid_text)], record)
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
