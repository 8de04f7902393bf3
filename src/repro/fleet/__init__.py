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
from repro.fleet.node import Node
from repro.fleet.orchestrator import (
    NodeOutcome,
    Orchestrator,
    RolloutReport,
    wave_plan,
)

# The failover/migration drivers sit atop repro.checkpoint, which
# itself boots fleet Nodes — import them lazily so ``import
# repro.checkpoint`` does not re-enter this package mid-initialisation.
_FAILOVER_EXPORTS = ("FailoverDrill", "FailoverResult")
_MIGRATION_EXPORTS = ("MigrationAbort", "MigrationDrill", "MigrationResult")


def __getattr__(name: str):
    if name in _FAILOVER_EXPORTS:
        from repro.fleet import failover

        return getattr(failover, name)
    if name in _MIGRATION_EXPORTS:
        from repro.fleet import migration

        return getattr(migration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FailoverDrill",
    "FailoverResult",
    "Fleet",
    "MigrationAbort",
    "MigrationDrill",
    "MigrationResult",
    "LoadBalancer",
    "Node",
    "NodeOutcome",
    "Orchestrator",
    "RolloutReport",
    "wave_plan",
]
