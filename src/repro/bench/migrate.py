"""Planned-migration benchmark (``bench migrate``): brownout vs crash RTO.

Three grids:

* **sweep** — pre-copy cadence × convergence threshold × server: each
  cell migrates a serving primary to a fresh target and reports the
  pre-copy rounds and bytes the policy produced, the final stop-and-copy
  size, and the client-perceived **brownout** (longest completed-response
  gap spanning the cutover).  The headline claim: a planned migration
  loses **zero** requests at every cadence and threshold, and its
  brownout — dominated by the quiescence wait, exactly like a
  whole-tree live update — stays within a small constant factor of the
  crash-failover RTO and ~40x inside the downtime budget.
* **head-to-head** — per server, the migration brownout next to the
  ``bench failover`` crash RTO measured under the same cadence, same
  windows, same request stream.
* **fault drills** — one row per migration-plane fault site: pre-copy
  faults must cost a round (the migration still completes); stop-and-copy
  and cutover faults must abort cleanly with the primary still serving.
  Every cell converges: migrated XOR primary-kept-serving.

Wired into the CLI as ``python -m repro bench migrate [--smoke]
[--json]``, which exits 1 when a ``verdicts`` entry fails (zero lost
requests, the brownout inside the downtime budget and comparable to the
crash RTO, every drill converged); the JSON lands in
``BENCH_migrate.json``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.bench.faultmatrix import MIGRATION_CELL_COLUMNS, run_drill_cell, run_trials
from repro.bench.reporting import render_table
from repro.fleet.failover import FailoverDrill
from repro.fleet.migration import MigrationDrill
from repro.mcr.config import DOWNTIME_BUDGET_NS, MCRConfig
from repro.mcr.faults import MIGRATION_SITES

SERVERS: Tuple[str, ...] = ("simple", "memcache", "httpd")
SMOKE_SERVERS: Tuple[str, ...] = ("simple", "memcache")

# Pre-copy cadences (ms of serving between delta rounds) × convergence
# thresholds (stop pre-copying once a round ships fewer bytes).
CADENCES_MS: Tuple[int, ...] = (20, 60)
SMOKE_CADENCES_MS: Tuple[int, ...] = (20,)
THRESHOLD_BYTES: Tuple[int, ...] = (0, 4096, 65536)
SMOKE_THRESHOLD_BYTES: Tuple[int, ...] = (4096,)

TRIALS = 2
SMOKE_TRIALS = 1

BUDGET_MS = DOWNTIME_BUDGET_NS / 1e6

# "At most comparable": the planned brownout may not exceed this many
# multiples of the measured crash RTO.  The two decompose differently:
# brownout = quiescence wait (bounded by the longest thread sleep
# period, ~20 ms for these servers) + final copy + promote (~3 ms);
# RTO = failure-detection timeout (5 ms) + promote (~3 ms).  That puts
# a clean stop-and-copy at just under 3x the crash RTO — the same
# order, both ~40x inside the 1 s budget, and on par with the
# whole-tree live-update blackout ``bench updatetime`` measures.
COMPARABLE_FACTOR = 3.0

# The verdicts the artifact's summary also stores.
_SUMMARY = (
    "clean_zero_loss", "all_migrated", "brownout_within_budget",
    "brownout_at_most_comparable", "all_drills_converged", "drills_zero_loss",
)


def _sweep_row(
    server: str, cadence_ms: int, threshold: int, trials: int
) -> Dict[str, Any]:
    row, runs = run_trials(
        (
            MigrationDrill(
                server,
                config=MCRConfig(checkpoint_interval_ns=cadence_ms * 1_000_000),
                convergence_bytes=threshold,
            )
            for _trial in range(trials)
        ),
        "brownout",
    )
    return {
        "server": server,
        "cadence_ms": cadence_ms,
        "threshold_bytes": threshold,
        **row,
        "migrated": all(run["migrated"] and run["error"] is None for run in runs),
        "converged_precopy": threshold == 0
        or all(run["converged_precopy"] for run in runs),
        "rounds_avg": round(sum(run["precopy_rounds"] for run in runs) / trials, 1),
        "reseeds": sum(run["reseeds"] for run in runs),
        "precopy_kb_avg": round(
            sum(run["precopy_kb_total"] for run in runs) / trials, 1
        ),
        "stopcopy_kb": round(
            max(run["stopcopy_bytes"] or 0 for run in runs) / 1024, 2
        ),
    }


def _head_to_head(server: str, cadence_ms: int) -> Dict[str, Any]:
    """Planned brownout vs crash RTO under the same cadence and stream."""
    cadence = MCRConfig(checkpoint_interval_ns=cadence_ms * 1_000_000)
    migrate, _runs = run_trials([MigrationDrill(server, config=cadence)], "brownout")
    failover, _runs = run_trials([FailoverDrill(server, config=cadence)], "rto")
    brownout = migrate["brownout_p50_ms"]
    rto = failover["rto_p50_ms"]
    return {
        "server": server,
        "cadence_ms": cadence_ms,
        "migrate_brownout_ms": brownout,
        "failover_rto_ms": rto,
        "brownout_over_rto": (
            None if not brownout or not rto else round(brownout / rto, 3)
        ),
        "migrate_lost": migrate["requests_lost"],
        "failover_lost": failover["requests_lost"],
        "comparable": (
            brownout is not None
            and rto is not None
            and brownout <= rto * COMPARABLE_FACTOR
        ),
    }


def run_migrate(
    smoke: bool = False, blackbox_path: Optional[str] = None
) -> Dict[str, Any]:
    servers = SMOKE_SERVERS if smoke else SERVERS
    cadences = SMOKE_CADENCES_MS if smoke else CADENCES_MS
    thresholds = SMOKE_THRESHOLD_BYTES if smoke else THRESHOLD_BYTES
    trials = SMOKE_TRIALS if smoke else TRIALS
    sweep = [
        _sweep_row(server, cadence_ms, threshold, trials)
        for server in servers
        for cadence_ms in cadences
        for threshold in thresholds
    ]
    head_to_head = [_head_to_head(server, cadences[0]) for server in servers]
    drills = [
        run_drill_cell("migration", servers[0], site, blackbox_path)
        for site in MIGRATION_SITES
    ]
    results: Dict[str, Any] = {
        "sweep": sweep,
        "head_to_head": head_to_head,
        "drills": drills,
    }
    checks = verdicts(results)
    results["summary"] = {
        "downtime_budget_ms": BUDGET_MS,
        **{key: checks[key] for key in _SUMMARY},
    }
    return results


def verdicts(results: Dict[str, Any]) -> Dict[str, bool]:
    """Every sweep row migrated, lost nothing and kept its brownout inside the
    budget and the client SLO; each brownout is at most comparable to the
    crash RTO; every fault drill fired, converged and lost nothing."""
    sweep, drills = results["sweep"], results["drills"]
    return {
        "clean_zero_loss": all(row["requests_lost"] == 0 for row in sweep),
        "all_migrated": all(row["migrated"] for row in sweep),
        "brownout_within_budget": all(
            row["brownout_p99_ms"] is not None
            and row["brownout_p99_ms"] <= BUDGET_MS
            for row in sweep
        ),
        "sweep_slo_ok": all(row["slo_ok"] for row in sweep),
        "brownout_at_most_comparable": bool(results["head_to_head"])
        and all(row["comparable"] for row in results["head_to_head"]),
        "all_drills_fired": all(row["fired"] for row in drills),
        "all_drills_converged": all(row["converged"] for row in drills),
        "drills_zero_loss": all(row["requests_lost"] == 0 for row in drills),
    }


def render(results: Dict[str, Any]) -> str:
    return "\n".join([
        render_table(
            "Planned migration: pre-copy cadence x convergence threshold",
            ["server", "cadence_ms", ("thresh_b", "threshold_bytes"),
             ("rounds", "rounds_avg"), ("precopy_kb", "precopy_kb_avg"),
             "stopcopy_kb", ("converged", "converged_precopy"),
             "brownout_p50_ms", "brownout_p99_ms", ("lost", "requests_lost"),
             "migrated"],
            results["sweep"],
        ),
        "",
        render_table(
            "Head to head: planned brownout vs crash RTO",
            ["server", "cadence_ms", ("brownout_ms", "migrate_brownout_ms"),
             ("crash_rto_ms", "failover_rto_ms"), ("brownout/rto", "brownout_over_rto"),
             ("mig_lost", "migrate_lost"), ("fo_lost", "failover_lost"), "comparable"],
            results["head_to_head"],
            note=(
                "brownout = longest completed-response gap spanning the "
                "cutover; RTO = crash to first standby-served completion"
            ),
        ),
        "",
        render_table("Migration fault drills", MIGRATION_CELL_COLUMNS, results["drills"]),
    ])
