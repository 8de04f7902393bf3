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
   state is uniform — all-old or all-new, never mixed — which the bench
   asserts per node via ``TreeFingerprint`` and protocol-level version
   probes.

In-update rollbacks restore the node byte-identically (MCR's fingerprint
verification); reverting an already-*committed* node is a fresh live
update back to the old program — semantic state carries over, exactly as
a real fleet rolls back a bad release.
"""

from __future__ import annotations

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


class RolloutReport:
    """Everything one rollout did, judged and aggregated."""

    def __init__(self, fleet: Fleet, from_version: int, to_version: int) -> None:
        self.fleet = fleet
        self.from_version = from_version
        self.to_version = to_version
        self.outcomes: List[NodeOutcome] = []
        self.waves_run = 0
        self.outcome = "updated"          # "updated" | "reverted"
        self.gate_failures: List[int] = []  # node ids that failed their gate
        self.reverted_nodes: List[int] = []
        self.revert_failures: List[int] = []
        self.converge_retries = 0
        self.start_ns = fleet.now_ns
        self.end_ns = fleet.now_ns

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
    def uniform(self) -> bool:
        """All-old or all-new, never mixed — the fleet-level invariant."""
        versions = set(self.end_versions)
        if len(versions) != 1:
            return False
        expected = (
            self.to_version if self.outcome == "updated" else self.from_version
        )
        return versions == {expected} and not self.revert_failures

    def to_dict(self) -> Dict[str, object]:
        fleet = self.fleet
        summary = self.blackout_summary_ms()
        return {
            "nodes": len(fleet),
            "from_version": self.from_version,
            "to_version": self.to_version,
            "outcome": self.outcome,
            "uniform": self.uniform,
            "waves": self.waves_run,
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
        inject through here.
        """
        fleet = self.fleet
        from_version = fleet.nodes[0].version
        target = to_version if to_version is not None else from_version + 1
        report = RolloutReport(fleet, from_version, target)
        fault_plans = fault_plans or {}
        order = list(fleet.nodes)
        waves: List[List[Node]] = []
        for size in wave_plan(len(order), canary=self.canary, growth=self.wave_growth):
            waves.append(order[:size])
            order = order[size:]
        aborted = False
        for wave_index, wave_nodes in enumerate(waves):
            report.waves_run += 1
            is_canary_wave = wave_index == 0
            # The wave leaves rotation: its stream shifts to the healthy
            # remainder, which gets one window queued to serve across the
            # coming blackout interval.
            for node in wave_nodes:
                fleet.lb.mark_updating(node.node_id)
            fleet.route(self.requests_per_window)
            wave_outcomes = [
                self._update_and_judge(
                    node, wave_index, target, fault_plans.get(node.node_id)
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
                if is_canary_wave or self.on_fault == "revert":
                    # A failed canary verdict always reverts the fleet.
                    self._revert(report)
                    aborted = True
                    break
                self._converge(report, failed, target)
            self.serve_windows(self.WINDOWS_BETWEEN_WAVES)
        if not aborted:
            report.outcome = "updated"
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
