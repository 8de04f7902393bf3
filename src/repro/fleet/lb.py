"""The simulated fleet load balancer: routes request windows to nodes.

The balancer models what a real L4/L7 front end does during a rolling
update: each traffic window's requests are split across the nodes that
are *in rotation*, and a node entering its update blackout is taken out
of rotation so its share shifts onto the healthy remainder.  Requests
already in flight on the updating node are not touched — MCR holds the
connections through the update, so they complete after commit; only the
*new* stream moves.  That is exactly the CheckSync judgement criterion:
the process is briefly down, the clients never are.

Routing is deterministic (largest-remainder apportionment with a
rotating tie-break) so every fleet bench is bit-reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


class LoadBalancer:
    """Deterministic request-window router over a fixed node set."""

    def __init__(self, node_ids: Sequence[int]) -> None:
        self.node_ids: List[int] = list(node_ids)
        self._out: set = set()
        # Rotating offset so remainder requests spread across nodes over
        # successive windows instead of always landing on the lowest id.
        self._offset = 0
        self.requests_shifted = 0  # routed while >=1 node was out

    # -- rotation control ----------------------------------------------------

    def mark_updating(self, node_id: int) -> None:
        """Take a node out of rotation for its update blackout."""
        self._out.add(node_id)

    def mark_healthy(self, node_id: int) -> None:
        """Return a node to rotation (post-commit or post-rollback)."""
        self._out.discard(node_id)

    def in_rotation(self) -> List[int]:
        return [n for n in self.node_ids if n not in self._out]

    # -- routing -------------------------------------------------------------

    def route(self, requests: int) -> Dict[int, int]:
        """Split one window's ``requests`` across in-rotation nodes.

        Whole-number largest-remainder split: every in-rotation node gets
        ``requests // n``, and the remainder goes to successive nodes
        starting at a rotating offset.  With every node out of rotation
        (a full-fleet blackout) the window is routed nowhere and the
        caller sees an empty map — those requests are *shed*, which the
        orchestrator counts as lost.
        """
        live = self.in_rotation()
        if not live or requests <= 0:
            return {}
        base, remainder = divmod(requests, len(live))
        counts = {node_id: base for node_id in live}
        for index in range(remainder):
            counts[live[(self._offset + index) % len(live)]] += 1
        self._offset = (self._offset + remainder) % max(1, len(live))
        if self._out:
            self.requests_shifted += requests
        return {node_id: count for node_id, count in counts.items() if count}
