"""SLO-gated canary → wave rollout across a fleet of nodes.

The rollout protocol (the fleet-scale analogue of one MCR update's
checkpoint/commit/rollback discipline):

1. **Canary** — update exactly one node mid-traffic, judge it by what
   its *clients* saw: the update must commit AND the node's measured
   blackout must fit ``DOWNTIME_BUDGET_NS`` (``ClientPerceived``, the
   CheckSync criterion).  A failed canary verdict aborts the rollout and
   auto-rolls-back the fleet — with only the canary possibly updated,
   that means the fleet ends exactly where it started.
2. **Waves** — widen geometrically (1 → k → k·growth → … → all).  Every
   wave's nodes leave load-balancer rotation for their blackout (their
   request stream shifts to the healthy remainder), update "in parallel"
   in virtual time, then rejoin.  Each node is judged like the canary.
3. **Fault policy** — a mid-wave failure (a node's update rolls back, or
   commits outside the SLO) resolves by policy: ``revert`` walks every
   already-committed node back to the old version, ``converge`` retries
   the failed node until the fleet is fully updated.  Either way the end
   state is uniform — all-old or all-new, never mixed.

``RolloutReport.violations()`` is the one statement of that contract: a
uniform end in the outcome the policy promises, every protocol-probed
node serving the expected version, every armed fault fired, every
rollback fingerprint-verified, no request lost, and every committed
node's client blackout inside the budget.

In-update rollbacks restore the node byte-identically (MCR's fingerprint
verification); reverting an already-*committed* node is a fresh live
update back to the old program — semantic state carries over, exactly as
a real fleet rolls back a bad release.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.clock import ns_to_ms
from repro.fleet.fleet import Fleet
from repro.fleet.node import Node
from repro.mcr.config import DOWNTIME_BUDGET_NS, MCRConfig
from repro.mcr.controller import UpdateResult
from repro.mcr.faults import FaultPlan
from repro.obs.metrics import Histogram
from repro.replay.scenario import UpdateOutcome
from repro.servers.common import ClientPerceived


def wave_plan(total: int, canary: int = 1, growth: int = 4) -> List[int]:
    """Wave sizes 1 → k → k·growth → … covering ``total`` nodes."""
    sizes: List[int] = []
    remaining = total
    size = max(1, canary)
    while remaining > 0:
        take = min(size, remaining)
        sizes.append(take)
        remaining -= take
        size = max(size * growth, growth)
    return sizes


class NodeOutcome:
    """One node's judged update attempt within a rollout: its
    ``UpdateResult``, with what its clients saw attached as ``.client``."""

    def __init__(self, node_id: int, wave: int, result: UpdateResult) -> None:
        self.node_id = node_id
        self.wave = wave
        self.result = result
        self.retried = False  # set on a converge-policy re-run

    @property
    def ok(self) -> bool:
        return self.result.committed and self.result.client.slo_ok

    def to_dict(self) -> Dict[str, object]:
        result = self.result
        update = UpdateOutcome.of(result)
        return {
            "node": self.node_id,
            "wave": self.wave,
            "committed": update.committed,
            "rolled_back": update.rolled_back,
            "blackout_ms": ns_to_ms(result.client.blackout_ns),
            "slo_ok": result.client.slo_ok,
            "duration_ms": ns_to_ms(result.total_ns),
            "rollback_verified": update.rollback_verified,
            "failure_site": update.failure_site,
            "error": type(result.error).__name__ if result.error else None,
            "retried": self.retried,
        }


# Fleet policy -> the outcome a rollout with an armed fault must end in.
POLICY_OUTCOMES = {"revert": "reverted", "converge": "updated"}


@dataclass(eq=False)
class RolloutReport:
    """Everything one rollout did, aggregated, and ``violations()``, the one
    statement of the rollout contract."""

    fleet: Fleet
    from_version: int
    to_version: int
    on_fault: str = "revert"
    faults: Dict[int, FaultPlan] = field(default_factory=dict)  # armed, by node id
    wave_sizes: List[int] = field(default_factory=list)  # the waves it ran
    outcomes: List[NodeOutcome] = field(default_factory=list)
    outcome: str = "updated"          # "updated" | "reverted"
    gate_failures: List[int] = field(default_factory=list)  # node ids that failed their gate
    reverted_nodes: List[int] = field(default_factory=list)
    revert_failures: List[int] = field(default_factory=list)
    converge_retries: int = 0
    served: Optional[List[Optional[int]]] = None  # per node, once ``probe()`` asked
    start_ns: int = field(init=False)
    end_ns: int = field(init=False)

    def __post_init__(self) -> None:
        self.start_ns = self.end_ns = self.fleet.now_ns

    # -- aggregates ----------------------------------------------------------

    def updated_blackouts_ns(self) -> List[int]:
        return [
            o.result.client.blackout_ns for o in self.outcomes if o.result.committed
        ]

    def blackout_summary_ms(self) -> Dict[str, object]:
        return Histogram.from_values(
            "fleet.node_blackout_ns", self.updated_blackouts_ns()
        ).summary_ms()

    @property
    def end_versions(self) -> List[int]:
        return self.fleet.versions()

    @property
    def expected_version(self) -> int:
        """The version every node must end on: the target, unless reverted."""
        return self.to_version if self.outcome == "updated" else self.from_version

    @property
    def uniform(self) -> bool:
        """All-old or all-new, never mixed — the fleet-level invariant."""
        return set(self.end_versions) == {self.expected_version} and not self.revert_failures

    @property
    def promised_outcome(self) -> str:
        """``updated`` with nothing armed, else what the policy promises; a
        failed canary reverts under either policy."""
        if not self.faults:
            return "updated"
        canary = {node.node_id for node in self.fleet.nodes[: self.wave_sizes[0]]}
        return POLICY_OUTCOMES["revert" if canary & set(self.faults) else self.on_fault]

    def probe(self) -> Optional[bool]:
        """Ask every node's server which version it serves; ``violations()``
        judges the answers.  True when all serve the expected version, None
        when one cannot say.  The probe is traffic: read the numbers first."""
        self.served = self.fleet.served_versions()
        return None if None in self.served else set(self.served) == {self.expected_version}

    def violations(self) -> List[str]:
        """Every way the rollout broke its contract; empty when it held."""
        expected, promised = self.expected_version, self.promised_outcome
        return [broken for broken in (
            set(self.end_versions) != {expected}
            and f"end versions {self.end_versions}, expected {expected}",
            self.revert_failures and f"revert failed on nodes {self.revert_failures}",
            self.served and set(self.served) != {expected}
            and f"served versions {self.served}, expected {expected}",
            self.outcome != promised and f"outcome {self.outcome}, promised {promised}",
            *(f"node {node_id}: armed and never fired"
              for node_id, plan in self.faults.items() if not plan.injected),
            *(f"node {o.node_id}: rollback not verified" for o in self.outcomes
              if o.result.rolled_back and not o.result.rollback_verified),
            self.fleet.requests_lost and f"requests lost: {self.fleet.requests_lost}",
            *(f"node {o.node_id}: blackout over budget" for o in self.outcomes
              if o.result.committed and not o.result.client.slo_ok),
        ) if broken]

    def to_dict(self) -> Dict[str, object]:
        fleet = self.fleet
        summary = self.blackout_summary_ms()
        return {
            "nodes": len(fleet),
            "from_version": self.from_version,
            "to_version": self.to_version,
            "outcome": self.outcome,
            "uniform": self.uniform,
            "waves": len(self.wave_sizes),
            "wave_plan": list(self.wave_sizes),
            "updated_nodes": sum(1 for o in self.outcomes if o.result.committed),
            "gate_failures": list(self.gate_failures),
            "reverted_nodes": list(self.reverted_nodes),
            "converge_retries": self.converge_retries,
            "requests_sent": fleet.requests_sent,
            "requests_completed": fleet.requests_completed,
            "requests_lost": fleet.requests_lost,
            "requests_shifted": fleet.lb.requests_shifted,
            "node_blackout_p50_ms": summary["p50_ms"],
            "node_blackout_p99_ms": summary["p99_ms"],
            "node_blackout_max_ms": summary["max_ms"],
            "fleet_blackout_ms": ns_to_ms(
                fleet.fleet_blackout_ns((self.start_ns, self.end_ns))
            ),
            "downtime_budget_ms": ns_to_ms(DOWNTIME_BUDGET_NS),
            "rollout_ms": ns_to_ms(self.end_ns - self.start_ns),
            "node_outcomes": [o.to_dict() for o in self.outcomes],
        }


class Orchestrator:
    """Drives SLO-gated canary → wave rollouts over one fleet."""

    # A traffic window is 2 ms of virtual time; two of them separate
    # consecutive waves.
    WINDOW_NS = 2_000_000
    WINDOWS_BETWEEN_WAVES = 2

    def __init__(
        self,
        fleet: Fleet,
        canary: int = 1,
        wave_growth: int = 4,
        on_fault: str = "revert",
        requests_per_window: Optional[int] = None,
    ) -> None:
        if on_fault not in ("revert", "converge"):
            raise ValueError(f"on_fault must be 'revert' or 'converge', got {on_fault!r}")
        self.fleet = fleet
        self.canary = canary
        self.wave_growth = wave_growth
        self.on_fault = on_fault
        self.requests_per_window = requests_per_window or max(4, len(fleet))

    # -- traffic -------------------------------------------------------------

    def serve_windows(self, count: int) -> None:
        for _ in range(count):
            self.fleet.serve_window(self.requests_per_window, self.WINDOW_NS)

    # -- the rollout ---------------------------------------------------------

    def rollout(
        self,
        to_version: Optional[int] = None,
        fault_plans: Optional[Dict[int, FaultPlan]] = None,
    ) -> RolloutReport:
        """Canary → widening waves → converged or fully-reverted fleet.

        ``fault_plans`` arms a per-node ``FaultPlan`` (fault-matrix style)
        for that node's update attempt — the mid-wave-fault experiments
        inject through here.  The report is neither probed nor judged here:
        that is ``probe()`` and ``violations()``, for whoever needs them.
        """
        fleet = self.fleet
        from_version = fleet.nodes[0].version
        target = to_version if to_version is not None else from_version + 1
        report = RolloutReport(
            fleet, from_version, target, self.on_fault, fault_plans or {}
        )
        order = list(fleet.nodes)
        plan = wave_plan(len(order), canary=self.canary, growth=self.wave_growth)
        for wave_index, size in enumerate(plan):
            wave_nodes, order = order[:size], order[size:]
            report.wave_sizes.append(size)
            # The wave leaves rotation: its stream shifts to the healthy
            # remainder, which gets one window queued to serve across the
            # coming blackout interval.
            for node in wave_nodes:
                fleet.lb.mark_updating(node.node_id)
            fleet.route(self.requests_per_window)
            wave_outcomes = [
                self._update_and_judge(
                    node, wave_index, target, report.faults.get(node.node_id)
                )
                for node in wave_nodes
            ]
            # Healthy nodes execute their queued requests across the same
            # virtual interval the updates consumed.
            fleet.sync()
            for node in wave_nodes:
                fleet.lb.mark_healthy(node.node_id)
            report.outcomes.extend(wave_outcomes)
            failed = [o for o in wave_outcomes if not o.ok]
            if failed:
                report.gate_failures.extend(o.node_id for o in failed)
                if wave_index == 0 or self.on_fault == "revert":
                    # A failed canary verdict always reverts the fleet.
                    self._revert(report)
                    break
                self._converge(report, failed, target)
            self.serve_windows(self.WINDOWS_BETWEEN_WAVES)
        fleet.drain()
        report.end_ns = fleet.now_ns
        return report

    def _update_and_judge(
        self, node: Node, wave_index: int, target: int,
        faults: Optional[FaultPlan],
    ) -> NodeOutcome:
        config = MCRConfig(faults=faults) if faults is not None else None
        t0 = node.now_ns
        result = node.update(to_version=target, config=config)
        # In-flight requests held through the update complete here; their
        # completion stamps bound the measured blackout.
        node.drain()
        t1 = node.now_ns
        result.client = ClientPerceived.measure(node.latency, window=(t0, t1))
        return NodeOutcome(node.node_id, wave_index, result)

    def _revert(self, report: RolloutReport) -> None:
        """Walk every committed node back to the old version (fleet rollback)."""
        report.outcome = "reverted"
        for node in self.fleet.nodes:
            if node.version == report.from_version:
                continue
            result = node.update(to_version=report.from_version)
            node.drain()
            if result.committed:
                report.reverted_nodes.append(node.node_id)
            else:  # a failed revert leaves the node new-version: loud, not mixed-silent
                report.revert_failures.append(node.node_id)

    def _converge(
        self, report: RolloutReport, failed: List[NodeOutcome], target: int
    ) -> None:
        """Retry failed nodes until the wave converges (fault plans are
        one-shot: the re-run is the clean attempt)."""
        for outcome in failed:
            node = self.fleet.by_id[outcome.node_id]
            for _attempt in range(2):
                if node.version == target:
                    break
                report.converge_retries += 1
                retry = self._update_and_judge(node, outcome.wave, target, None)
                retry.retried = True
                report.outcomes.append(retry)
                if retry.ok:
                    break
