"""The fleet harness: N nodes multiplexed in lockstep virtual time.

Every node owns an independent kernel and virtual clock; the harness
advances them in synchronized slices, so "the rest of the fleet keeps
serving while node 7 is in its update blackout" is literal — the other
kernels execute their request streams across the same virtual interval
the update consumed on node 7.  Host-side the nodes run sequentially;
virtual-time-side they are concurrent, which is the only notion of time
any measurement in this repo uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.lb import LoadBalancer
from repro.fleet.node import Node
from repro.mcr.faults import TreeFingerprint
from repro.servers.common import ClientLatencyLog


class Fleet:
    """N stamped-out nodes behind one simulated load balancer."""

    def __init__(self, nodes: Sequence[Node]) -> None:
        self.nodes: List[Node] = list(nodes)
        self.by_id: Dict[int, Node] = {node.node_id: node for node in self.nodes}
        self.lb = LoadBalancer([node.node_id for node in self.nodes])
        self.requests_shed = 0  # requests routed while every node was out

    @classmethod
    def boot(cls, size: int, server: str = "simple") -> "Fleet":
        """Stamp out ``size`` nodes of ``server`` (cheap: ~2 ms per node)."""
        return cls([Node.boot(server, node_id=index) for index in range(size)])

    def __len__(self) -> int:
        return len(self.nodes)

    # -- lockstep time --------------------------------------------------------

    @property
    def now_ns(self) -> int:
        """Fleet time: the furthest-ahead node clock."""
        return max(node.now_ns for node in self.nodes)

    def sync(self) -> None:
        """Advance every node to the fleet-wide maximum clock.

        After an update advanced one node's clock by its blackout, this
        is what charges the same interval to every other node — their
        pending request streams execute across it.
        """
        deadline = self.now_ns
        for node in self.nodes:
            node.advance_to(deadline)

    def route(self, requests: int) -> Dict[int, int]:
        """Issue ``requests`` to in-rotation nodes; with none, shed them."""
        counts = self.lb.route(requests)
        if requests > 0 and not counts:
            self.requests_shed += requests
        for node_id, count in counts.items():
            self.by_id[node_id].serve(count)
        return counts

    def serve_window(self, requests: int, window_ns: int) -> Dict[int, int]:
        """Route one traffic window; every node, in rotation or not, runs
        through it."""
        counts = self.route(requests)
        deadline = self.now_ns + window_ns
        for node in self.nodes:
            node.advance_to(deadline)
        return counts

    def drain(self) -> None:
        """Complete every issued request fleet-wide, then re-sync clocks."""
        for node in self.nodes:
            node.drain()
        self.sync()

    # -- aggregates -----------------------------------------------------------

    @property
    def requests_sent(self) -> int:
        return sum(node.requests_sent for node in self.nodes)

    @property
    def requests_completed(self) -> int:
        return sum(node.completed for node in self.nodes)

    @property
    def requests_lost(self) -> int:
        return sum(node.lost for node in self.nodes) + self.requests_shed

    def versions(self) -> List[int]:
        return [node.version for node in self.nodes]

    def served_versions(self) -> List[Optional[int]]:
        """Protocol-probed live version per node (None where unsupported)."""
        return [node.served_version() for node in self.nodes]

    def fingerprints(self) -> Dict[int, TreeFingerprint]:
        return {node.node_id: node.fingerprint() for node in self.nodes}

    def fleet_blackout_ns(self, window: Optional[Tuple[int, int]] = None) -> int:
        """Longest gap in *fleet-wide* completions.

        The client-perceived availability of the whole service: while any
        node completes requests, the fleet is up.  With the balancer
        shifting streams around per-node blackouts this stays near the
        inter-window idle gap even while individual nodes are dark.
        """
        merged = ClientLatencyLog.merged(node.latency for node in self.nodes)
        return merged.blackout_ns(window)

    def teardown(self) -> None:
        for node in self.nodes:
            node.teardown()
