"""Fleet-scale rolling update benchmark (``bench fleetroll``).

Boots a 16-node fleet of MCR-enabled servers inside one Python process
(each node = its own kernel, virtual clock, server tree, and obs
collector) and drives SLO-gated canary → wave rollouts across it:

* **wave sweep** — the same clean v1 → v2 rollout at several wave
  growth factors (serial one-at-a-time, geometric, and big-bang), and
  for the memcache fleet in full mode.  Per row: fleet-wide requests
  lost, per-node blackout p99, fleet-perceived blackout, rollout
  duration.  The headline claim: with the load balancer shifting the
  request stream around each node's blackout, a clean rollout loses
  **zero** requests and every node's blackout fits the downtime budget.
* **fault matrix** — faultmatrix-style rows injecting one mid-wave
  fault per rollout, crossed with the two fleet policies.  ``revert``
  must end the fleet fully old-version; ``converge`` fully new-version
  — either way the end state is uniform, never mixed, which each row
  asserts via per-node versions, protocol-level version probes, and the
  faulted node's fingerprint-verified rollback.
* **isolation row** — the quiet-stream regression at bench level:
  update one node of an idle fleet and assert every bystander's
  ``TreeFingerprint`` stayed byte-identical.

Wired into the CLI as ``python -m repro bench fleetroll [--smoke]
[--json]``, which exits 1 when a ``verdicts`` entry fails (a clean
rollout lost a request, a fault row did not fire or end uniform in the
outcome its policy promises); the JSON lands in ``BENCH_fleetroll.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.reporting import render_table
from repro.clock import ns_to_ms
from repro.fleet import Fleet, Orchestrator, wave_plan
from repro.mcr.config import DOWNTIME_BUDGET_NS
from repro.replay.scenario import UpdateOutcome, arm

FLEET_SIZE = 16

# (label, canary, growth): serial one-node-at-a-time, geometric canary
# widening, and near-big-bang (canary then everything).
WAVE_SWEEP: List[Tuple[str, int, int]] = [
    ("serial", 1, 1),
    ("canary-x2", 1, 2),
    ("canary-x4", 1, 4),
    ("big-bang", 1, FLEET_SIZE),
]
SMOKE_WAVE_SWEEP: List[Tuple[str, int, int]] = [
    ("serial", 1, 1),
    ("canary-x4", 1, 4),
]

# Mid-wave fault sites: each makes one second-wave node's update fail in
# a distinct pipeline phase (memory fault mid-transfer, descriptor
# handoff death, replay conflict, commit-prepare failure) so the policy
# machinery is exercised against real rollbacks, not one canned error.
FAULT_SITES = [
    "transfer.memory",
    "restart.fd_handoff",
    "reinit.replay",
    "commit.prepare",
]
SMOKE_FAULT_SITES = ["transfer.memory"]
# Fleet policy -> the rollout outcome a mid-wave fault must end in.
POLICY_OUTCOMES = {"revert": "reverted", "converge": "updated"}
# Nodes in the isolation row: one updated, the rest bystanders.
ISOLATION_NODES = 4


def _clean_rollout_row(
    label: str,
    canary: int,
    growth: int,
    server: str,
    nodes: int,
    requests_per_window: int,
) -> Dict[str, object]:
    fleet = Fleet.boot(nodes, server=server)
    try:
        orchestrator = Orchestrator(
            fleet,
            canary=canary,
            wave_growth=growth,
            requests_per_window=requests_per_window,
        )
        # Steady-state traffic before the rollout so the blackout window
        # has live streams on both sides.
        orchestrator.serve_windows(2)
        report = orchestrator.rollout(to_version=2)
        row = report.to_dict()
        row["label"] = label
        row["server"] = server
        row["wave_plan"] = wave_plan(nodes, canary=canary, growth=growth)
        row["served_uniform"] = _served_uniform(fleet, report.to_version)
        return row
    finally:
        fleet.teardown()


def _served_uniform(fleet: Fleet, expected: int) -> Optional[bool]:
    """Protocol-probed: does every node *serve* the expected version?"""
    served = fleet.served_versions()
    if any(version is None for version in served):
        return None
    return set(served) == {expected}


def _fault_row(
    site: str,
    policy: str,
    nodes: int,
    requests_per_window: int,
) -> Dict[str, object]:
    fleet = Fleet.boot(nodes, server="simple")
    try:
        orchestrator = Orchestrator(
            fleet,
            on_fault=policy,
            wave_growth=4,
            requests_per_window=requests_per_window,
        )
        orchestrator.serve_windows(1)
        # Arm the fault on a second-wave node: the canary goes clean, so
        # the failure lands mid-rollout with commits already banked.
        faulted_id = fleet.nodes[1].node_id
        report = orchestrator.rollout(
            to_version=2, fault_plans={faulted_id: arm(site)}
        )
        faulted = [o.result for o in report.outcomes if o.node_id == faulted_id]
        update = UpdateOutcome.of(faulted[0] if faulted else None)
        expected_end = (
            report.to_version if report.outcome == "updated"
            else report.from_version
        )
        end_versions = set(fleet.versions())
        return {
            "site": site,
            "policy": policy,
            "fired": update.failure_site == site,
            "outcome": report.outcome,
            "uniform": report.uniform,
            "end_version": expected_end if end_versions == {expected_end} else None,
            "served_uniform": _served_uniform(fleet, expected_end),
            "rollback_verified": update.rollback_verified,
            "reverted_nodes": len(report.reverted_nodes),
            "converge_retries": report.converge_retries,
            "requests_lost": fleet.requests_lost,
        }
    finally:
        fleet.teardown()


def _isolation_row() -> Dict[str, object]:
    """Quiet-stream cross-node isolation, asserted byte-for-byte.

    The bystanders' fingerprints must not move; the updated node must
    serve the new version (asked over its protocol, not read off its
    fingerprint, which keys on process names).
    """
    nodes = ISOLATION_NODES
    fleet = Fleet.boot(nodes, server="simple")
    try:
        before = fleet.fingerprints()
        result = fleet.nodes[0].update(to_version=2)
        after = fleet.fingerprints()
        bystanders = [node.node_id for node in fleet.nodes[1:]]
        return {
            "nodes": nodes,
            "updated_node": fleet.nodes[0].node_id,
            "update_committed": result.committed,
            "bystanders_identical": all(
                before[nid].matches(after[nid]) for nid in bystanders
            ),
            "updated_changed": fleet.nodes[0].served_version() == 2,
        }
    finally:
        fleet.teardown()


def run_fleetroll(smoke: bool = False) -> Dict[str, object]:
    nodes = FLEET_SIZE
    requests_per_window = 2 * nodes
    sweep = SMOKE_WAVE_SWEEP if smoke else WAVE_SWEEP
    sites = SMOKE_FAULT_SITES if smoke else FAULT_SITES
    fault_nodes = 8  # fault rollouts need waves, not scale

    waves = [
        _clean_rollout_row(label, canary, growth, "simple", nodes,
                           requests_per_window)
        for label, canary, growth in sweep
    ]
    if not smoke:
        waves.append(
            _clean_rollout_row("canary-x4", 1, 4, "memcache", nodes,
                               requests_per_window)
        )
    faults = [
        _fault_row(site, policy, fault_nodes, fault_nodes)
        for site in sites
        for policy in POLICY_OUTCOMES
    ]
    results: Dict[str, object] = {
        "fleet_size": nodes,
        "downtime_budget_ms": ns_to_ms(DOWNTIME_BUDGET_NS),
        "waves": waves,
        "faults": faults,
        "isolation": _isolation_row(),
    }
    checks = verdicts(results)
    results.update({key: checks[key] for key in _STORED_VERDICTS})
    return results


# The verdicts the artifact also stores, under the same names.
_STORED_VERDICTS = (
    "clean_zero_loss", "clean_slo_ok", "all_clean_uniform",
    "all_fault_uniform", "isolation_ok",
)


def verdicts(results: Dict[str, object]) -> Dict[str, bool]:
    """Clean rollouts lose nothing, end uniform and keep every node's blackout
    p99 inside the budget; every fault row fires and ends uniform, in the
    outcome its policy promises, on probed servers; bystanders stay
    byte-identical."""
    waves, faults = results["waves"], results["faults"]
    isolation = results["isolation"]
    return {
        "clean_zero_loss": all(row["requests_lost"] == 0 for row in waves),
        "clean_slo_ok": all(
            row["node_blackout_p99_ms"] <= results["downtime_budget_ms"]
            for row in waves
        ),
        "all_clean_uniform": all(row["uniform"] for row in waves),
        "all_fault_uniform": all(row["uniform"] for row in faults),
        "faults_fired": all(row["fired"] for row in faults),
        "faults_end_as_policy": all(
            row["outcome"] == POLICY_OUTCOMES[row["policy"]] for row in faults
        ),
        "faults_served_uniform": all(row["served_uniform"] for row in faults),
        "isolation_ok": isolation["bystanders_identical"]
        and isolation["updated_changed"],
    }


def render(results: Dict[str, object]) -> str:
    isolation = results["isolation"]
    return "\n".join(
        [
            render_table(
                "Fleet rollout: wave size sweep (clean v1 -> v2)",
                [
                    "label", "server",
                    ("plan", lambda row: "/".join(str(s) for s in row["wave_plan"])),
                    "waves", "uniform", ("sent", "requests_sent"),
                    ("lost", "requests_lost"), ("shifted", "requests_shifted"),
                    ("node_p99_ms", "node_blackout_p99_ms"),
                    ("fleet_blk_ms", "fleet_blackout_ms"), "rollout_ms",
                ],
                results["waves"],
                note=(
                    "lost=0: the balancer shifts each node's stream around "
                    "its blackout; in-flight requests ride through the "
                    "update and complete after commit"
                ),
            ),
            "",
            render_table(
                "Fleet rollout: mid-wave fault x policy",
                [
                    "site", "policy", "fired", "outcome", "uniform",
                    ("served_uni", "served_uniform"),
                    ("rb_verified", "rollback_verified"),
                    ("reverted", "reverted_nodes"), ("retries", "converge_retries"),
                    ("lost", "requests_lost"),
                ],
                results["faults"],
                note=(
                    "uniform: the fleet ends all-old (revert) or all-new "
                    "(converge), never mixed; served_uni probes the live "
                    "servers, not orchestrator bookkeeping"
                ),
            ),
            "",
            f"isolation: update on node {isolation['updated_node']} left "
            f"{isolation['nodes'] - 1} bystanders byte-identical="
            f"{isolation['bystanders_identical']} "
            f"(updated node changed={isolation['updated_changed']})",
            "",
            f"fleet={results['fleet_size']} nodes, "
            f"budget={results['downtime_budget_ms']:.0f} ms",
        ]
    )
