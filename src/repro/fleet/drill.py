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
every node it booted, the never-raise ``run``, and ``cell``, the one
fault-matrix cell runner.  ``DrillResult`` owns the shared fields, a
cell's row, and ``violations()``, the one statement of the contract.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.checkpoint import (
    CheckpointImage,
    DeltaBaseline,
    StandbyChannel,
    WarmStandby,
)
from repro.clock import ns_to_ms
from repro.fleet.node import Node
from repro.mcr.config import MCRConfig
from repro.mcr.faults import FaultPlan
from repro.replay.scenario import arm
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


def reported(*keys: Tuple[str, Callable[[Any], Any]], **field_args) -> Any:
    """A result field ``to_dict`` reports as ``(key, convert)`` pairs, not as itself."""
    return field(metadata={"reported": keys}, **field_args)


def kb(nbytes: int) -> int:
    return nbytes // 1024


def ms(ns: Optional[int]) -> Optional[float]:
    return None if ns is None else ns_to_ms(ns)


@dataclass
class DrillResult:
    """What every drill measures, JSON-ready via ``to_dict``."""

    server: str
    primary_survived: bool = False
    served_after: bool = False
    requests_sent: int = 0
    requests_completed: int = 0
    requests_lost: int = 0
    reissued: int = 0
    image_bytes: int = reported(("image_kb", kb), default=0)
    fired_sites: List[str] = field(default_factory=list)
    perceived: Optional[Dict[str, Any]] = None
    blackbox: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    faults: Optional[FaultPlan] = reported(default=None)  # what the drill armed

    # The fields a fault-matrix cell reports (``row`` adds derived keys).
    ROW: ClassVar[Tuple[str, ...]] = (
        "fired_sites", "primary_survived", "requests_lost", "served_after", "error")

    @property
    def fired(self) -> bool:
        return bool(self.fired_sites or (self.faults and self.faults.injected))

    def violations(self) -> List[str]:
        """Every way the drill broke its contract (``recovered``, the peer
        ended up serving, is each drill's); empty when it held."""
        return [broken for broken in (
            self.error,
            not self.served_after and "not serving afterwards",
            self.recovered == self.primary_survived
            and ("two end states" if self.recovered else "no end state"),
            self.fired and not self.faults and "fired without being armed",
            self.faults and not self.fired and "armed and never fired",
            self.requests_lost and f"requests lost: {self.requests_lost}",
        ) if broken]

    def row(self) -> Dict[str, Any]:
        """A fault-matrix cell's report: the ``ROW`` fields and the verdict."""
        data = self.to_dict()
        return dict({key: data[key] for key in self.ROW},
                    fired=self.fired, converged=not self.violations())

    def to_dict(self) -> Dict[str, Any]:
        """Each field under its own name (lists and dicts copied), or under
        the keys it is ``reported`` as."""
        return {
            key: convert(getattr(self, item.name))
            for item in fields(self)
            for key, convert in item.metadata.get("reported", ((item.name, copy),))
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

    @classmethod
    def cell(cls, server: str, site: Optional[str],
             blackbox_path: Optional[str] = None, **settings: int) -> Dict[str, Any]:
        """One fault-matrix cell's row: arm ``site`` ("a+b" a double fault, None
        clean) on a config that also sets the ``MCRConfig`` fields ``settings``,
        and run the drill.  An error never escapes: it is the cell's RAISED row."""
        armed = site.split("+") if site else []
        options = cls._cell_options(armed)
        row = {"server": server, "armed": armed, "raised": False, **options}
        config = MCRConfig(faults=arm(site), blackbox_path=blackbox_path, **settings)
        try:
            row.update(cls(server, config=config, **options).run().row())
        except Exception as error:  # the drill's contract says never
            # Report every key a finished cell does, so tables show RAISED.
            row.update(dict.fromkeys(cls.RESULT(server).row()),
                       raised=True, error=repr(error), converged=False)
        return row

    @classmethod
    def _cell_options(cls, armed: List[str]) -> Dict[str, Any]:
        return {}  # constructor options a cell armed with ``armed`` runs with

    def run(self) -> DrillResult:
        """Never raises; every node the drill booted is torn down."""
        result = self.RESULT(self.server, faults=self.config.faults)
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
