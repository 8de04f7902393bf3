"""Crash-failover drills: primary + warm standby under fault injection.

The robustness counterpart of the rollout orchestrator: instead of a
*planned* live update, the ``FailoverDrill`` kills the primary outright
(``Kernel.crash_tree`` — no fd release, no port cleanup, mid-window)
and measures what clients actually experience while the load balancer
fails over to a warm standby kept fresh by the incremental checkpoint
stream of ``repro.checkpoint``:

* **RTO** — crash time to the first request completed by the standby;
* **requests lost** — end-to-end, with the in-flight requests that died
  with the primary re-issued against the promoted standby (the retry a
  real client library performs against the VIP);
* **staleness** — how many delta sequences the standby was behind when
  promoted (CheckSync-style bounded divergence under stream faults).

Every checkpoint-plane fault site can be armed mid-drill.  Checkpoint-
side faults (``checkpoint.capture``/``write``/``delta``) never disturb
serving — the drill swallows them and the primary continues cleanly;
stream/restore/promote faults degrade the standby instead, and the
drill still converges by promoting the stale standby or cold-restoring
from the last good durable image.  ``run`` never raises: the outcome is
always a ``FailoverResult``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro import obs
from repro.checkpoint import (
    DeltaBaseline,
    WarmStandby,
    capture_delta,
    checkpoint_node,
    read_image,
    restore_image,
    resume_node,
    write_image,
)
from repro.fleet.drill import PEER_ID, Drill, DrillResult, ms, reported, sync_clock
from repro.mcr.config import MCRConfig
from repro.servers.common import ClientLatencyLog

# Failure-detection delay: the lease/heartbeat timeout before the fleet
# declares the primary dead and starts promotion (virtual ns).
DETECT_NS = 5_000_000
# Cold restore: rehydrating the tree from its image, per described byte.
REHYDRATE_BYTE_NS = 1

COLD_ID = 2


@dataclass
class FailoverResult(DrillResult):
    """Everything one crash drill measured, JSON-ready via ``to_dict``."""

    crashed: bool = False
    promoted: bool = False
    cold_restored: bool = False
    rto_ns: Optional[int] = reported(("rto_ms", ms), default=None)
    delta_bytes: int = 0
    deltas_sent: int = 0
    checkpoint_failures: int = 0
    standby_stale: bool = False
    stale_lag: int = 0          # source seq - applied seq at promotion

    ROW = DrillResult.ROW + (
        "promoted", "cold_restored", "standby_stale", "stale_lag", "rto_ms")

    @property
    def recovered(self) -> bool:
        return self.promoted or self.cold_restored

    def row(self) -> Dict[str, Any]:
        return dict(super().row(), recovered_on_standby=self.recovered,
                    blackbox=self.blackbox is not None)


class FailoverDrill(Drill):
    """One primary/standby pair driven through windows, cadence, and a crash."""

    RESULT = FailoverResult
    WINDOWS = 10
    # Sites that leave the primary serving when they fire: a cell armed
    # with these alone runs without a crash.
    CONTINUE_SITES = ("checkpoint.capture", "checkpoint.write", "checkpoint.delta")

    def __init__(
        self,
        server: str = "simple",
        config: Optional[MCRConfig] = None,
        crash: bool = True,
        crash_window: int = WINDOWS // 2,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        super().__init__(server, config)
        self.crash = crash
        self.crash_window = crash_window
        self.checkpoint_path = checkpoint_path
        self.last_image = None
        self.durable_ok = False
        self.source_seq = 0
        self.crash_ns: Optional[int] = None

    @property
    def standby(self) -> Optional[WarmStandby]:
        return self.peer

    @classmethod
    def _cell_options(cls, armed: List[str]) -> Dict[str, Any]:
        return {"crash": not armed or any(s not in cls.CONTINUE_SITES for s in armed)}

    # -- checkpoint plumbing (fault-tolerant: failures never stop serving) -----

    def _cut_full(self, result: FailoverResult) -> bool:
        """Cut + durably write a full image, (re)seed baseline and standby."""
        try:
            image = checkpoint_node(self.primary, self.config)
        except Exception as error:
            result.checkpoint_failures += 1
            self._fired(result, error)
            return False
        self.last_image = image
        result.image_bytes = image.total_bytes()
        self.baseline = DeltaBaseline(image)
        self.source_seq = 0
        self._write_durable(result)
        return True

    def _write_durable(self, result: FailoverResult) -> None:
        try:
            write_image(self.last_image, self.checkpoint_path, self.config)
            self.durable_ok = True
        except Exception as error:
            result.checkpoint_failures += 1
            self._fired(result, error)

    def _boot_standby(self, result: FailoverResult) -> None:
        for _attempt in (1, 2):  # a failed restore is retried once
            try:
                self.peer = WarmStandby.from_image(
                    self.last_image, node_id=PEER_ID, config=self.config
                )
                return
            except Exception as error:
                self._fired(result, error)

    def _seed_peer(self, result: FailoverResult) -> None:
        self._cut_full(result) and self._boot_standby(result)

    def _cadence_tick(self, result: FailoverResult) -> None:
        """Cut the next delta and stream it (or repair whatever failed)."""
        if self.last_image is None:
            self._seed_peer(result)
            return
        if not self.durable_ok:
            self._write_durable(result)  # retry a torn image write
        if self.peer is None:
            self._boot_standby(result)
        try:
            delta = capture_delta(self.primary, self.baseline, self.config)
        except Exception as error:
            result.checkpoint_failures += 1
            self._fired(result, error)
            return
        if delta is None:
            # Tree shape changed: resync standby from a fresh full image.
            if self._cut_full(result) and self.peer is not None:
                try:
                    self.peer.resync(self.last_image)
                except Exception as error:  # the standby stays stale
                    result.checkpoint_failures += 1
                    self._fired(result, error)
            return
        self.source_seq = delta.meta["seq"]
        result.deltas_sent += 1
        result.delta_bytes += delta.stored_bytes()
        try:
            self._ship(delta)
        except Exception as error:
            self._fired(result, error)  # dropped -> the standby will see a gap

    # -- the crash + failover --------------------------------------------------

    def _failover(self, result: FailoverResult) -> None:
        """Kill the primary, then promote the standby or cold-restore."""
        primary = self.primary
        self.crash_ns = primary.now_ns
        result.crashed = True
        pending = primary.pending()
        with primary.scope():
            primary.kernel.crash_tree(primary.root)
        obs.emit("failover.crash", severity="warn", at_ns=self.crash_ns)
        self.serving = None
        if self.peer is not None:
            sync_clock(self.peer.node, self.crash_ns + DETECT_NS)
            result.standby_stale = self.peer.stale
            result.stale_lag = self.source_seq - self.peer.applied_seq
            try:
                self.serving = self.peer.promote()
                result.promoted = True
            except Exception as error:
                self._fired(result, error)
                result.blackbox = self.peer.last_blackbox
        if self.serving is None:
            self._cold_restore(result)
        if self.serving is not None:
            result.reissued = pending
            self.serving.serve(pending)

    def _cold_restore(self, result: FailoverResult) -> None:
        """Last resort: restore from the last good durable (or in-memory) image."""
        image = None
        if self.durable_ok:
            try:
                image = read_image(self.checkpoint_path)
            except Exception as error:
                self._fired(result, error)
        if image is None:
            image = self.last_image
        if image is None:
            result.error = "no image to restore from"
            return
        try:
            node = restore_image(image, node_id=COLD_ID, config=self.config)
        except Exception as error:
            self._fired(result, error)
            result.error = f"cold restore failed: {error}"
            return
        self.serving = node
        # Cold restore pays the full image read + graft, not a warm promote.
        sync_clock(node, self.crash_ns + DETECT_NS)
        node.kernel.clock.advance(image.total_bytes() * REHYDRATE_BYTE_NS)
        resume_node(node)
        result.cold_restored = True
        obs.emit("failover.cold_restore", image_id=image.image_id)

    # -- the drill -------------------------------------------------------------

    def run(self) -> FailoverResult:
        if self.checkpoint_path is not None:
            return super().run()
        # No durable path given: the image lives (and dies) with the drill.
        with tempfile.TemporaryDirectory(prefix="mcr-image-") as scratch:
            self.checkpoint_path = os.path.join(scratch, "primary.img")
            return super().run()

    def _window(self, result: FailoverResult, window: int, deadline: int) -> None:
        if self.crash and window == self.crash_window and not result.crashed:
            self.serving.advance_to(deadline - self.WINDOW_NS // 2)
            self._failover(result)
            if self.serving is None:
                return
        self.serving.advance_to(deadline)
        if self.serving is self.primary:
            if self.peer is not None:
                sync_clock(self.peer.node, deadline)
            if self._round_due(deadline):
                self._cadence_tick(result)

    def _headline(self, result: FailoverResult, merged: ClientLatencyLog) -> None:
        """RTO: crash to the first request completed by the new server."""
        if not result.crashed:
            return
        serving = self.serving
        # In-flight clients frozen with the crashed kernel: their
        # re-issues completed (or were lost) on the standby; anything
        # still pending there after the final drain is lost for good.
        result.requests_lost += serving.pending()
        after = [r for _s, r in serving.latency.samples if r >= self.crash_ns]
        if after:
            result.rto_ns = min(after) - self.crash_ns
