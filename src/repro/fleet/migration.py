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
   ``max_precopy_rounds``;
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

import json
from typing import Any, Dict, List, Optional

from repro import obs
from repro.checkpoint import (
    DeltaBaseline,
    StandbyChannel,
    WarmStandby,
    capture_delta,
    capture_delta_locked,
    checkpoint_node,
    hold_quiesced,
)
from repro.errors import SimError
from repro.fleet.lb import LoadBalancer
from repro.fleet.node import Node
from repro.mcr.config import MCRConfig
from repro.mcr.faults import fire
from repro.servers.common import ClientLatencyLog, ClientPerceived

PRIMARY_ID = 0
TARGET_ID = 1

# Default convergence policy: stop pre-copying once a round ships less
# than one page of dirty state, or after this many rounds regardless.
DEFAULT_CONVERGENCE_BYTES = 4096
DEFAULT_MAX_PRECOPY_ROUNDS = 6

# Requests bracketing the cutover instant on each side, so the measured
# brownout is the client-visible cost of the cutover itself rather than
# whatever idle time the request windows happen to leave around it.
CUTOVER_PROBES = 2

# Virtual time the drill lets the tree settle after a drain before
# cutting a full image or the final delta: a worker that has not yet
# processed a client's EOF still holds the accepted-connection fd, and
# boot-and-graft validation (rightly) refuses an image with connection
# fds a fresh boot cannot have.
SETTLE_NS = 2_000_000


class MigrationAbort(SimError):
    """Internal control flow: abandon the cutover, keep the primary."""


class MigrationResult:
    """Everything one migration drill measured, JSON-ready via ``to_dict``."""

    def __init__(self, server: str) -> None:
        self.server = server
        self.migrated = False
        self.aborted = False
        self.abort_reason: Optional[str] = None
        self.primary_survived = False
        self.served_after = False
        self.requests_sent = 0
        self.requests_completed = 0
        self.requests_lost = 0
        self.reissued = 0
        self.image_bytes = 0
        self.reseeds = 0            # full-image resyncs after drift/staleness
        self.precopy_rounds = 0
        self.precopy_failures = 0
        self.precopy_bytes: List[int] = []
        self.converged_precopy = False
        self.stopcopy_bytes: Optional[int] = None
        self.cutover_started_ns: Optional[int] = None
        self.brownout_ns: Optional[int] = None
        self.fired_sites: List[str] = []
        self.perceived: Optional[Dict[str, Any]] = None
        self.blackbox: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "server": self.server,
            "migrated": self.migrated,
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
            "primary_survived": self.primary_survived,
            "served_after": self.served_after,
            "requests_sent": self.requests_sent,
            "requests_completed": self.requests_completed,
            "requests_lost": self.requests_lost,
            "reissued": self.reissued,
            "image_kb": self.image_bytes // 1024,
            "reseeds": self.reseeds,
            "precopy_rounds": self.precopy_rounds,
            "precopy_failures": self.precopy_failures,
            "precopy_bytes": list(self.precopy_bytes),
            "precopy_kb_total": sum(self.precopy_bytes) // 1024,
            "converged_precopy": self.converged_precopy,
            "stopcopy_bytes": self.stopcopy_bytes,
            "brownout_ms": (
                None if self.brownout_ns is None else self.brownout_ns / 1e6
            ),
            "fired_sites": list(self.fired_sites),
            "perceived": self.perceived,
            "blackbox": self.blackbox,
            "error": self.error,
        }


class MigrationDrill:
    """One primary migrated to a fresh target while it keeps serving."""

    def __init__(
        self,
        server: str = "simple",
        config: Optional[MCRConfig] = None,
        windows: int = 12,
        window_ns: int = 20_000_000,
        requests_per_window: int = 6,
        precopy_interval_ns: Optional[int] = None,
        convergence_bytes: int = DEFAULT_CONVERGENCE_BYTES,
        max_precopy_rounds: int = DEFAULT_MAX_PRECOPY_ROUNDS,
    ) -> None:
        self.server = server
        self.config = config or MCRConfig()
        self.windows = windows
        self.window_ns = window_ns
        self.requests_per_window = requests_per_window
        # Pre-copy cadence: how much serving time elapses between delta
        # rounds (defaults to the checkpoint cadence knob, the same one
        # the failover bench sweeps).
        self.precopy_interval_ns = (
            precopy_interval_ns
            if precopy_interval_ns is not None
            else self.config.checkpoint_interval_ns
        )
        self.convergence_bytes = convergence_bytes
        self.max_precopy_rounds = max(1, max_precopy_rounds)
        # Drill state.
        self.primary: Optional[Node] = None
        self.target: Optional[WarmStandby] = None
        self.channel = StandbyChannel()
        self.baseline: Optional[DeltaBaseline] = None
        self.ready_to_cut = False

    # -- seeding / re-seeding --------------------------------------------------

    def _fired(self, result: MigrationResult, error: Exception) -> None:
        site = getattr(error, "fault_site", None)
        result.fired_sites.append(site or type(error).__name__)

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
            if self.target is None:
                self.target = WarmStandby.from_image(
                    image, node_id=TARGET_ID, config=self.config
                )
            else:
                self.target.resync(image)
                result.reseeds += 1
        except Exception as error:
            self._fired(result, error)
            return False
        return True

    # -- pre-copy --------------------------------------------------------------

    def _precopy_round(self, result: MigrationResult) -> None:
        """One delta round; failures cost the round, never the primary."""
        if self.target is None or self.baseline is None:
            if not self._seed(result):
                result.precopy_failures += 1
            return
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
        result.precopy_bytes.append(delta.total_bytes())
        try:
            self.channel.send(delta, self.config)
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
        for blob in self.channel.drain():
            self.target.apply(blob)
        if self.target.stale:
            # A dropped or damaged delta bounded the target's freshness;
            # a planned migration has time to repair it in place.
            self._seed(result)
            return
        if delta.total_bytes() <= self.convergence_bytes:
            result.converged_precopy = True
            self.ready_to_cut = True
        elif result.precopy_rounds >= self.max_precopy_rounds:
            self.ready_to_cut = True

    # -- stop-and-copy + cutover -----------------------------------------------

    def _cutover(self, result: MigrationResult, lb: LoadBalancer) -> Optional[Node]:
        """Freeze, ship the last delta, promote the target; None on abort."""
        primary = self.primary
        primary.serve(CUTOVER_PROBES)
        primary.drain()  # finish in-flight + probe work before the barrier
        primary.settle(SETTLE_NS)  # workers release served-connection fds
        result.cutover_started_ns = primary.now_ns
        try:
            with hold_quiesced(primary, self.config):
                fire(self.config, "migrate.stopcopy")
                delta = capture_delta_locked(primary, self.baseline, self.config)
                if delta is None:
                    raise MigrationAbort("structural drift at stop-and-copy")
                result.stopcopy_bytes = delta.total_bytes()
                # The copy happens with the source frozen, so its stream
                # time is part of the brownout the clients experience.
                primary.kernel.clock.advance(
                    self.channel.send(delta, self.config)
                )
                for blob in self.channel.drain():
                    self.target.apply(blob)
                if self.target.stale:
                    raise MigrationAbort(
                        f"target stale at stop-and-copy "
                        f"(applied_seq={self.target.applied_seq})"
                    )
                _sync_clock(self.target.node, primary.now_ns)
                fire(self.config, "migrate.cutover")
                serving = self.target.promote()
        except Exception as error:
            # Abort: the barrier is already released (hold_quiesced's
            # finally), the primary resumes serving, the target retires.
            self._fired(result, error)
            result.aborted = True
            result.abort_reason = repr(error)
            self._dump_blackbox(result, error)
            self._retire_target()
            obs.emit("migrate.aborted", severity="warn", reason=repr(error))
            return None
        result.migrated = True
        lb.mark_updating(PRIMARY_ID)
        lb.mark_healthy(TARGET_ID)
        pending = primary.pending()
        result.reissued = pending
        serving.serve(pending + CUTOVER_PROBES)
        serving.drain()
        obs.emit(
            "migrate.cutover_done",
            rounds=result.precopy_rounds,
            stopcopy_bytes=result.stopcopy_bytes,
        )
        return serving

    def _dump_blackbox(self, result: MigrationResult, error: Exception) -> None:
        """Stamp the flight recorder with the aborted cutover's story."""
        collector = self.primary.collector
        result.blackbox = collector.recorder.dump(
            "migrate.aborted",
            failure_site=getattr(error, "fault_site", None)
            or type(error).__name__,
            precopy_rounds=result.precopy_rounds,
            precopy_failures=result.precopy_failures,
            reseeds=result.reseeds,
            stopcopy_bytes=result.stopcopy_bytes,
            target_applied_seq=(
                self.target.applied_seq if self.target is not None else None
            ),
        )
        path = self.config.blackbox_path
        if path:
            try:
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(result.blackbox, handle, indent=2, sort_keys=True)
            except OSError:  # the dump must never make an abort worse
                pass

    def _retire_target(self) -> None:
        if self.target is not None:
            try:
                self.target.node.teardown()
            except Exception:  # best effort; the primary must keep serving
                pass
            self.target = None
            self.baseline = None

    # -- the drill -------------------------------------------------------------

    def run(self) -> MigrationResult:
        result = MigrationResult(self.server)
        try:
            self._run(result)
        except Exception as error:  # pragma: no cover - the never-raise backstop
            result.error = f"drill error: {error!r}"
        return result

    def _run(self, result: MigrationResult) -> None:
        self.primary = Node.boot(
            self.server, node_id=PRIMARY_ID, config=self.config
        )
        lb = LoadBalancer([PRIMARY_ID, TARGET_ID])
        lb.mark_updating(TARGET_ID)  # the target warms out of rotation
        # Warm up, then seed the target from a full image (after the
        # post-drain settle so served-connection fds are released).
        self.primary.serve(self.requests_per_window)
        self.primary.drain()
        self.primary.settle(SETTLE_NS)
        self._seed(result)
        serving = self.primary
        start_ns = serving.now_ns
        last_round_ns = start_ns
        migration_done = self.target is None  # a failed seed = no migration
        if migration_done:
            result.aborted = True
            result.abort_reason = result.abort_reason or "seeding failed"
        for window in range(self.windows):
            deadline = start_ns + (window + 1) * self.window_ns
            serving.serve(self.requests_per_window)
            serving.advance_to(deadline)
            if migration_done:
                continue
            _sync_clock(self.target.node, deadline)
            # Force the cutover while windows remain, so the migrated
            # tree still has traffic to prove itself against.
            if window >= self.windows - 3:
                self.ready_to_cut = True
            if not self.ready_to_cut and deadline - last_round_ns >= self.precopy_interval_ns:
                self._precopy_round(result)
                last_round_ns = deadline
            if self.ready_to_cut:
                migrated = self._cutover(result, lb)
                migration_done = True
                if migrated is not None:
                    serving = migrated
        if serving is not None:
            serving.drain()
            result.served_after = bool(serving.served_version() or serving.completed)
            result.primary_survived = serving is self.primary
            self._measure(result, serving, start_ns)
        self._teardown(serving)

    def _measure(
        self, result: MigrationResult, serving: Node, start_ns: int
    ) -> None:
        nodes = [self.primary]
        if serving is not self.primary:
            nodes.append(serving)
        result.requests_sent = sum(n.requests_sent for n in nodes) - result.reissued
        result.requests_completed = sum(n.completed for n in nodes)
        result.requests_lost = sum(n.lost for n in nodes)
        if result.migrated:
            # Anything left queued on the retired primary is gone.
            result.requests_lost += self.primary.pending()
        merged = ClientLatencyLog()
        for node in nodes:
            merged.samples.extend(node.latency.samples)
        merged.samples.sort()
        end_ns = serving.now_ns
        result.perceived = ClientPerceived.measure(
            merged,
            self.config.downtime_budget_ns,
            window=(start_ns, end_ns),
        ).to_dict()
        if result.migrated and result.cutover_started_ns is not None:
            # The brownout: the longest completed-response gap spanning
            # the cutover — directly comparable to the crash drill's RTO.
            cut = result.cutover_started_ns
            completions = sorted(recv for _send, recv in merged.samples)
            before = [r for r in completions if r <= cut]
            after = [r for r in completions if r > cut]
            if before and after:
                result.brownout_ns = after[0] - before[-1]

    def _teardown(self, serving: Optional[Node]) -> None:
        for node in (
            self.primary,
            self.target.node if self.target is not None else None,
            serving,
        ):
            if node is not None:
                try:
                    node.teardown()
                except Exception:  # a retired kernel may refuse; best effort
                    pass


def _sync_clock(node: Node, to_ns: int) -> None:
    """Lockstep a quiesced node's clock with the drill deadline."""
    delta = to_ns - node.now_ns
    if delta > 0:
        node.kernel.clock.advance(delta)


def run_migration_drill(
    server: str = "simple",
    config: Optional[MCRConfig] = None,
    **kwargs: Any,
) -> MigrationResult:
    """Convenience wrapper: build a drill, run it, return the result."""
    return MigrationDrill(server, config=config, **kwargs).run()
