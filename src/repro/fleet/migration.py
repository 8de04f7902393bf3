"""Planned live migration: pre-copy deltas, stop-and-copy, LB cutover.

The planned counterpart of ``repro.fleet.failover``: instead of waiting
for the primary to die and promoting whatever the warm standby last
applied, a ``MigrationDrill`` *moves* a serving tree to a new "host"
with the machinery of ``repro.checkpoint`` (CRIU-style iterative
pre-copy over the same image/delta format):

1. **seed** — cut a full image of the primary and restore it into the
   migration target, parked at the quiescence barrier;
2. **pre-copy** — while the primary keeps serving, repeatedly cut
   ``capture_delta`` rounds and stream them over the ``StandbyChannel``;
   the convergence policy stops when a round ships fewer than
   ``convergence_bytes`` bytes (the dirty rate has converged) or after
   ``MAX_PRECOPY_ROUNDS``;
3. **stop-and-copy** — drain in-flight requests, park the primary under
   real quiescence (``hold_quiesced``), cut the final delta with the
   tree frozen, stream + apply it, and fingerprint-verify the target by
   promoting it (``WarmStandby.promote``);
4. **cutover** — flip the load balancer to the target and retire the
   primary; any request still pending is re-issued against the target.

The client-perceived cost is the **brownout**: the longest gap in
completed responses spanning the cutover instant — the planned-update
analogue of the crash drill's RTO, measured the same way so ``bench
migrate`` can put them side by side.

Fault semantics mirror the failover drill's convergence contract.  A
``migrate.precopy`` fault (or a stream fault mid-round) costs one round
— a stale target is re-seeded from a fresh full image and the migration
still completes.  A ``migrate.stopcopy`` or ``migrate.cutover`` fault
(or a failed promotion) aborts the migration: the barrier is released,
the half-built target is torn down, and the primary resumes serving
exactly where it stopped.  ``run`` never raises; every drill ends with
**migrated XOR primary-kept-serving**, never both dead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro import obs
from repro.checkpoint import (
    DeltaBaseline,
    WarmStandby,
    capture_delta,
    capture_delta_locked,
    checkpoint_node,
    hold_quiesced,
)
from repro.errors import SimError
from repro.fleet.drill import (
    PEER_ID, SETTLE_NS, Drill, DrillResult, kb, ms, reported, sync_clock,
)
from repro.mcr.config import MCRConfig
from repro.mcr.faults import fire
from repro.servers.common import ClientLatencyLog

# Convergence policy: stop pre-copying once a round ships less than one
# page of dirty state (the default), or after this many rounds regardless.
DEFAULT_CONVERGENCE_BYTES = 4096
MAX_PRECOPY_ROUNDS = 6

# Requests bracketing the cutover instant on each side, so the measured
# brownout is the client-visible cost of the cutover itself rather than
# whatever idle time the request windows happen to leave around it.
CUTOVER_PROBES = 2


class MigrationAbort(SimError):
    """Internal control flow: abandon the cutover, keep the primary."""


@dataclass
class MigrationResult(DrillResult):
    """Everything one migration drill measured, JSON-ready via ``to_dict``."""

    migrated: bool = False
    aborted: bool = False
    abort_reason: Optional[str] = None
    reseeds: int = 0            # full-image resyncs after drift/staleness
    precopy_rounds: int = 0
    precopy_failures: int = 0
    precopy_bytes: List[int] = reported(
        ("precopy_bytes", list),
        ("precopy_kb_total", lambda rounds: kb(sum(rounds))),
        default_factory=list,
    )
    converged_precopy: bool = False
    stopcopy_bytes: Optional[int] = None
    brownout_ns: Optional[int] = reported(("brownout_ms", ms), default=None)

    ROW = DrillResult.ROW + (
        "migrated", "aborted", "precopy_rounds", "precopy_failures", "reseeds",
        "brownout_ms")

    @property
    def recovered(self) -> bool:
        return self.migrated

    def row(self) -> Dict[str, Any]:
        # An aborted cutover's black box names the site that killed it.
        return dict(super().row(),
                    blackbox_site=(self.blackbox or {}).get("failure_site"))


class MigrationDrill(Drill):
    """One primary migrated to a fresh target while it keeps serving."""

    RESULT = MigrationResult
    WINDOWS = 12

    def __init__(
        self,
        server: str = "simple",
        config: Optional[MCRConfig] = None,
        convergence_bytes: int = DEFAULT_CONVERGENCE_BYTES,
    ) -> None:
        super().__init__(server, config)
        self.convergence_bytes = convergence_bytes
        self.ready_to_cut = False
        self.done = False  # cut over, aborted, or never seeded
        self.cutover_started_ns: Optional[int] = None

    @property
    def target(self) -> Optional[WarmStandby]:
        return self.peer

    # -- seeding / re-seeding --------------------------------------------------

    def _seed(self, result: MigrationResult) -> bool:
        """Cut a full image and (re)build the parked target from it."""
        try:
            image = checkpoint_node(self.primary, self.config)
        except Exception as error:
            self._fired(result, error)
            return False
        result.image_bytes = max(result.image_bytes, image.total_bytes())
        self.baseline = DeltaBaseline(image)
        try:
            if self.peer is None:
                self.peer = WarmStandby.from_image(
                    image, node_id=PEER_ID, config=self.config
                )
            else:
                self.peer.resync(image)
                result.reseeds += 1
        except Exception as error:
            self._fired(result, error)
            return False
        return True

    def _seed_peer(self, result: MigrationResult) -> None:
        if not self._seed(result):  # a failed seed = no migration
            self.done = result.aborted = True
            result.abort_reason = "seeding failed"

    # -- pre-copy --------------------------------------------------------------

    def _precopy_round(self, result: MigrationResult) -> None:
        """One delta round; failures cost the round, never the primary."""
        try:
            fire(self.config, "migrate.precopy")
            delta = capture_delta(self.primary, self.baseline, self.config)
        except Exception as error:
            result.precopy_failures += 1
            self._fired(result, error)
            return
        if delta is None:
            # Structural drift: only a fresh full image can resync.
            self._seed(result)
            return
        result.precopy_rounds += 1
        result.precopy_bytes.append(delta.stored_bytes())
        try:
            self._ship(delta)
        except Exception as error:
            result.precopy_failures += 1
            self._fired(result, error)
            # The delta is gone but the baseline already advanced past
            # it: every later delta would arrive at the target with a
            # sequence gap.  Unlike the failover drill (which lets the
            # standby go stale and reports the lag), a planned migration
            # has time to repair in place — reseed from a full image.
            self._seed(result)
            return
        if self.peer.stale:
            # A dropped or damaged delta bounded the target's freshness;
            # a planned migration has time to repair it in place.
            self._seed(result)
            return
        if delta.stored_bytes() <= self.convergence_bytes:
            result.converged_precopy = True
            self.ready_to_cut = True
        elif result.precopy_rounds >= MAX_PRECOPY_ROUNDS:
            self.ready_to_cut = True

    # -- stop-and-copy + cutover -----------------------------------------------

    def _cutover(self, result: MigrationResult) -> None:
        """Freeze, ship the last delta, promote the target — or abort."""
        primary = self.primary
        primary.serve(CUTOVER_PROBES)
        primary.drain()  # finish in-flight + probe work before the barrier
        primary.settle(SETTLE_NS)  # workers release served-connection fds
        self.cutover_started_ns = primary.now_ns
        try:
            with hold_quiesced(primary, self.config):
                fire(self.config, "migrate.stopcopy")
                delta = capture_delta_locked(primary, self.baseline, self.config)
                if delta is None:
                    raise MigrationAbort("structural drift at stop-and-copy")
                result.stopcopy_bytes = delta.stored_bytes()
                # The copy happens with the source frozen, so its stream
                # time is part of the brownout the clients experience.
                primary.kernel.clock.advance(self._ship(delta))
                if self.peer.stale:
                    raise MigrationAbort(
                        f"target stale at stop-and-copy "
                        f"(applied_seq={self.peer.applied_seq})"
                    )
                sync_clock(self.peer.node, primary.now_ns)
                fire(self.config, "migrate.cutover")
                serving = self.peer.promote()
        except Exception as error:
            # Abort: the barrier is already released (hold_quiesced's
            # finally), the primary resumes serving, the target retires.
            self._abort(result, error)
            return
        result.migrated = True
        self.serving = serving
        result.reissued = primary.pending()
        serving.serve(result.reissued + CUTOVER_PROBES)
        serving.drain()
        obs.emit(
            "migrate.cutover_done",
            rounds=result.precopy_rounds,
            stopcopy_bytes=result.stopcopy_bytes,
        )

    def _abort(self, result: MigrationResult, error: Exception) -> None:
        """Record why the cutover died, dump the black box, retire the target."""
        self._fired(result, error)
        result.aborted = True
        result.abort_reason = repr(error)
        result.blackbox, _path = self.primary.collector.blackbox(
            "migrate.aborted",
            self.config.blackbox_path,
            failure_site=result.fired_sites[-1],
            precopy_rounds=result.precopy_rounds,
            precopy_failures=result.precopy_failures,
            reseeds=result.reseeds,
            stopcopy_bytes=result.stopcopy_bytes,
            target_applied_seq=self.peer.applied_seq,
        )
        try:
            self.peer.node.teardown()
        except Exception:  # best effort; the primary must keep serving
            pass
        self.peer = self.baseline = None
        obs.emit("migrate.aborted", severity="warn", reason=repr(error))

    # -- the drill -------------------------------------------------------------

    def _window(self, result: MigrationResult, window: int, deadline: int) -> None:
        self.serving.advance_to(deadline)
        if self.done:
            return
        sync_clock(self.peer.node, deadline)
        # Force the cutover while windows remain, so the migrated
        # tree still has traffic to prove itself against.
        if window >= self.WINDOWS - 3:
            self.ready_to_cut = True
        if not self.ready_to_cut and self._round_due(deadline):
            self._precopy_round(result)
        if self.ready_to_cut:
            self._cutover(result)
            self.done = True

    def _headline(self, result: MigrationResult, merged: ClientLatencyLog) -> None:
        """Brownout: the longest completed-response gap spanning the
        cutover — directly comparable to the crash drill's RTO."""
        if not result.migrated:
            return
        # Anything left queued on the retired primary is gone.
        result.requests_lost += self.primary.pending()
        cut = self.cutover_started_ns
        completions = merged.completions_ns()
        before = [r for r in completions if r <= cut]
        after = [r for r in completions if r > cut]
        if before and after:
            result.brownout_ns = after[0] - before[-1]
