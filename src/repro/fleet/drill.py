"""The drill engine shared by crash failover and planned migration.

Both drills are the same experiment with a different trigger (CRIU runs
crash recovery and pre-copy migration on one dump/restore engine the
same way): boot a primary, warm it up, seed a barrier-parked peer from
a full image, then serve fixed traffic windows while delta rounds keep
the peer fresh — until the primary is crashed (``FailoverDrill``) or
deliberately cut over (``MigrationDrill``) — and finally account for
every request end to end and judge what clients perceived.

``Drill`` owns everything that is not the trigger: the primary / peer /
channel / baseline state, boot and warm-up, the window loop and its
delta cadence, shipping a delta to the peer, fault bookkeeping, request
accounting with the merged client latency log, best-effort teardown of
every node it booted, and the never-raise ``run``.  ``DrillResult``
owns the fields both outcomes share and the convergence contract:
exactly one of {the peer took over, the primary kept serving}.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.checkpoint import (
    CheckpointImage,
    DeltaBaseline,
    StandbyChannel,
    WarmStandby,
)
from repro.fleet.node import Node
from repro.mcr.config import MCRConfig
from repro.servers.common import ClientLatencyLog, ClientPerceived

PRIMARY_ID = 0
PEER_ID = 1

# Virtual time a tree is left to settle after a drain before a full
# image or a final delta is cut: a worker that has not yet processed a
# client's EOF still holds the accepted-connection fd, and boot-and-graft
# validation (rightly) refuses an image with connection fds a fresh boot
# cannot have — this is what used to wedge the httpd rows of the full
# cadence sweep into cold-restore loops.
SETTLE_NS = 2_000_000


def sync_clock(node: Node, to_ns: int) -> None:
    """Lockstep a quiesced node's clock with the drill deadline."""
    delta = to_ns - node.now_ns
    if delta > 0:
        node.kernel.clock.advance(delta)


class DrillResult:
    """What every drill measures, JSON-ready via ``to_dict``."""

    def __init__(self, server: str) -> None:
        self.server = server
        self.primary_survived = False
        self.served_after = False
        self.requests_sent = 0
        self.requests_completed = 0
        self.requests_lost = 0
        self.reissued = 0
        self.image_bytes = 0
        self.fired_sites: List[str] = []
        self.perceived: Optional[Dict[str, Any]] = None
        self.blackbox: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None

    @property
    def converged(self) -> bool:
        """The XOR contract: exactly one end state, and it served afterwards.

        ``recovered`` (the peer ended up serving) is named by each drill.
        """
        return (
            self.error is None
            and self.served_after
            and self.recovered != self.primary_survived
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "server": self.server,
            "primary_survived": self.primary_survived,
            "served_after": self.served_after,
            "requests_sent": self.requests_sent,
            "requests_completed": self.requests_completed,
            "requests_lost": self.requests_lost,
            "reissued": self.reissued,
            "image_kb": self.image_bytes // 1024,
            "fired_sites": list(self.fired_sites),
            "perceived": self.perceived,
            "blackbox": self.blackbox,
            "error": self.error,
        }


class Drill:
    """One primary and one warm peer driven through traffic windows.

    A drill supplies ``RESULT`` (its result type), ``WINDOWS`` (how many
    traffic windows it serves), ``_seed_peer(result)``,
    ``_window(result, window, deadline)`` (what happens once a window's
    requests are issued; it hands over by re-pointing ``self.serving``)
    and ``_headline(result, merged)`` (requests the hand-over stranded
    for good, and the headline number: RTO / brownout).
    """

    RESULT = DrillResult
    # Every window is 20 ms of virtual time with 6 requests issued at its
    # start; warm-up serves one window's requests too.
    WINDOW_NS = 20_000_000
    REQUESTS_PER_WINDOW = 6

    def __init__(self, server: str, config: Optional[MCRConfig]) -> None:
        self.server = server
        self.config = config or MCRConfig()
        # Drill state.
        self.primary: Optional[Node] = None
        self.peer: Optional[WarmStandby] = None
        self.serving: Optional[Node] = None
        self.channel = StandbyChannel()
        self.baseline: Optional[DeltaBaseline] = None
        self._last_round_ns = 0

    # -- shared plumbing -------------------------------------------------------

    def _fired(self, result: DrillResult, error: Exception) -> None:
        site = getattr(error, "fault_site", None)
        result.fired_sites.append(site or type(error).__name__)

    def _ship(self, delta: CheckpointImage) -> int:
        """Stream one delta to the peer; returns the stream's virtual cost.

        Only the send can fail (a ``stream.send`` death drops the delta
        and propagates to the caller's handler); ``WarmStandby.apply``
        marks the peer stale instead of raising.
        """
        cost_ns = self.channel.send(delta, self.config)
        if self.peer is not None:
            for blob in self.channel.drain():
                self.peer.apply(blob)
        return cost_ns

    def _round_due(self, deadline: int) -> bool:
        """True once per ``checkpoint_interval_ns`` of serving: cut the next delta."""
        if deadline - self._last_round_ns < self.config.checkpoint_interval_ns:
            return False
        self._last_round_ns = deadline
        return True

    # -- the drill -------------------------------------------------------------

    def run(self) -> DrillResult:
        """Never raises; every node the drill booted is torn down."""
        result = self.RESULT(self.server)
        try:
            self._run(result)
        except Exception as error:  # the never-raise backstop
            result.error = f"drill error: {error!r}"
        finally:
            self._teardown()
        return result

    def _run(self, result: DrillResult) -> None:
        self.primary = self.serving = Node.boot(
            self.server, node_id=PRIMARY_ID, config=self.config
        )
        self.primary.serve(self.REQUESTS_PER_WINDOW)
        self.primary.drain()
        self.primary.settle(SETTLE_NS)
        self._seed_peer(result)
        start_ns = self._last_round_ns = self.primary.now_ns
        for window in range(self.WINDOWS):
            self.serving.serve(self.REQUESTS_PER_WINDOW)
            self._window(result, window, start_ns + (window + 1) * self.WINDOW_NS)
            if self.serving is None:
                return  # nothing left to serve from: no recovery story
        serving = self.serving
        serving.drain()
        result.served_after = bool(serving.served_version() or serving.completed)
        result.primary_survived = serving is self.primary
        self._measure(result, start_ns)

    def _measure(self, result: DrillResult, start_ns: int) -> None:
        """End-to-end request accounting + the client-perceived verdict."""
        serving = self.serving
        nodes = [self.primary]
        if serving is not self.primary:
            nodes.append(serving)
        result.requests_sent = sum(n.requests_sent for n in nodes) - result.reissued
        result.requests_completed = sum(n.completed for n in nodes)
        result.requests_lost = sum(n.lost for n in nodes)
        merged = ClientLatencyLog.merged(node.latency for node in nodes)
        result.perceived = ClientPerceived.measure(
            merged, window=(start_ns, serving.now_ns)
        ).to_dict()
        self._headline(result, merged)

    def _teardown(self) -> None:
        for node in (
            self.primary,
            self.peer.node if self.peer is not None else None,
            self.serving,
        ):
            if node is not None:
                try:
                    node.teardown()
                except Exception:  # a dead kernel may refuse; best effort
                    pass
