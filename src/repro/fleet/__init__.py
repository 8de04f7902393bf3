"""Fleet-scale live update: stampable nodes, a simulated load balancer,
and an SLO-gated canary → wave rollout orchestrator.

One Python process hosts the whole fleet: each :class:`Node` owns an
independent kernel, virtual clock, server tree, MCR session, and obs
collector, and :class:`Fleet` multiplexes them in lockstep virtual time.
:class:`Orchestrator` then drives live updates across the fleet the way
production rollouts do — canary one node, judge it by client-perceived
downtime against the budget, widen in waves, and revert or converge on
mid-wave faults so the fleet never ends mixed-version.
"""

from repro.fleet.fleet import Fleet
from repro.fleet.lb import LoadBalancer
from repro.fleet.orchestrator import (
    NodeOutcome,
    Orchestrator,
    RolloutReport,
    wave_plan,
)
# ``Node`` lives with the boot recipe it wraps (``repro.servers.node``), so
# the checkpoint plane below this package can restore one; perfbench
# imports it from here.
from repro.servers.node import Node

__all__ = [
    "Fleet",
    "LoadBalancer",
    "Node",
    "NodeOutcome",
    "Orchestrator",
    "RolloutReport",
    "wave_plan",
]
