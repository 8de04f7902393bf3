"""Fleet-scale rolling update benchmark (``bench fleetroll``).

Boots a 16-node fleet of MCR-enabled servers inside one Python process
(each node = its own kernel, virtual clock, server tree, and obs
collector) and drives SLO-gated canary → wave rollouts across it:

Every rollout is one cell of ``rollout_cell``, the one runner, and each
row carries ``converged``: ``RolloutReport.violations()``, the one
statement of the rollout contract, found nothing.  Two grids of cells
(data, like faultmatrix's ``DRILL_GRIDS``) and one extra row:

* **wave sweep** — the same clean v1 → v2 rollout at several wave
  growth factors (serial one-at-a-time, geometric, and big-bang), and
  for the memcache fleet in full mode.  Per row: fleet-wide requests
  lost, per-node blackout p99, fleet-perceived blackout, rollout
  duration.  The headline claim: with the load balancer shifting the
  request stream around each node's blackout, a clean rollout loses
  **zero** requests and every node's blackout fits the downtime budget.
* **fault matrix** — faultmatrix-style cells injecting one mid-wave
  fault per rollout, crossed with the two fleet policies.  ``revert``
  must end the fleet fully old-version; ``converge`` fully new-version
  — either way the end state is uniform, never mixed, judged on
  per-node versions, protocol-level version probes, and the faulted
  node's fingerprint-verified rollback.
* **isolation row** — the quiet-stream regression at bench level:
  update one node of an idle fleet and assert every bystander's
  ``TreeFingerprint`` stayed byte-identical.

Wired into the CLI as ``python -m repro bench fleetroll [--smoke]
[--json]``, which exits 1 when a ``verdicts`` entry fails (a clean or a
faulted rollout did not converge, or a bystander changed); the JSON
lands in ``BENCH_fleetroll.json``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bench.reporting import render_table
from repro.clock import ns_to_ms
from repro.fleet import Fleet, Orchestrator
from repro.fleet.orchestrator import POLICY_OUTCOMES
from repro.mcr.config import DOWNTIME_BUDGET_NS
from repro.mcr.controller import arm

FLEET_SIZE = 16

# The wave sweep's cells: the same clean v1 -> v2 rollout one node at a
# time, with geometric canary widening, and near-big-bang (canary then
# everything); in full runs, canary-x4 on a memcache fleet too.
SWEEP = dict(nodes=FLEET_SIZE, requests_per_window=2 * FLEET_SIZE, warm_windows=2)
WAVE_SWEEP: List[Dict[str, Any]] = [
    dict(SWEEP, label="serial", growth=1),
    dict(SWEEP, label="canary-x2", growth=2),
    dict(SWEEP, label="canary-x4", growth=4),
    dict(SWEEP, label="big-bang", growth=FLEET_SIZE),
    dict(SWEEP, label="canary-x4", growth=4, server="memcache"),
]
SMOKE_WAVE_SWEEP = [WAVE_SWEEP[0], WAVE_SWEEP[2]]

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
# The node a fault cell arms: the canary goes clean, so the failure lands
# mid-rollout with commits already banked.
FAULTED_NODE = 1
# The fault grid's cells: every site under both policies.  Fault
# rollouts need waves, not scale.
FAULT_GRID: List[Dict[str, Any]] = [
    dict(nodes=8, requests_per_window=8, warm_windows=1, site=site, policy=policy)
    for site in FAULT_SITES
    for policy in POLICY_OUTCOMES
]
SMOKE_FAULT_GRID = FAULT_GRID[:2]  # the first site under both policies
# Nodes in the isolation row: one updated, the rest bystanders.
ISOLATION_NODES = 4


def rollout_cell(
    nodes: int, requests_per_window: int, warm_windows: int,
    server: str = "simple", growth: int = 4, **cell: str,
) -> Dict[str, Any]:
    """One rollout's row, named by ``cell``: a sweep cell's ``label``, or a
    fault cell's ``site`` (armed on ``FAULTED_NODE``) and ``policy``.  Boot
    ``nodes``, serve the warm windows, roll out to v2, then probe once;
    ``converged`` is ``RolloutReport.violations()``'s."""
    fleet = Fleet.boot(nodes, server=server)
    try:
        orchestrator = Orchestrator(
            fleet, wave_growth=growth, on_fault=cell.get("policy", "revert"),
            requests_per_window=requests_per_window,
        )
        # Steady-state traffic before the rollout so the blackout window
        # has live streams on both sides.
        orchestrator.serve_windows(warm_windows)
        site = cell.get("site")
        faults = {FAULTED_NODE: arm(site)} if site else {}
        report = orchestrator.rollout(to_version=2, fault_plans=faults)
        row = dict(cell, server=server, **report.to_dict())
        # The probe is traffic, so it runs after the row's numbers are read.
        row["served_uniform"] = report.probe()
        row["converged"] = not report.violations()
        return row
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
    sweep = SMOKE_WAVE_SWEEP if smoke else WAVE_SWEEP
    faults = SMOKE_FAULT_GRID if smoke else FAULT_GRID
    return {
        "fleet_size": FLEET_SIZE,
        "downtime_budget_ms": ns_to_ms(DOWNTIME_BUDGET_NS),
        "waves": [rollout_cell(**cell) for cell in sweep],
        "faults": [rollout_cell(**cell) for cell in faults],
        "isolation": _isolation_row(),
    }


def verdicts(results: Dict[str, object]) -> Dict[str, bool]:
    """Every clean and every faulted rollout converged
    (``RolloutReport.violations`` found nothing); bystanders stay
    byte-identical."""
    isolation = results["isolation"]
    return {
        "clean_all_converged": all(row["converged"] for row in results["waves"]),
        "faults_all_converged": all(row["converged"] for row in results["faults"]),
        "isolation_ok": isolation["bystanders_identical"]
        and isolation["updated_changed"],
    }


def _faulted(row: Dict[str, Any]) -> Dict[str, Any]:
    """The armed node's first attempt in a fault row."""
    return next(o for o in row["node_outcomes"] if o["node"] == FAULTED_NODE)


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
                    "converged",
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
                    "site", "policy",
                    ("fired", lambda row: _faulted(row)["failure_site"] == row["site"]),
                    "outcome", "uniform", ("served_uni", "served_uniform"),
                    ("rb_verified", lambda row: _faulted(row)["rollback_verified"]),
                    ("reverted", lambda row: len(row["reverted_nodes"])),
                    ("retries", "converge_retries"), ("lost", "requests_lost"),
                    "converged",
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
