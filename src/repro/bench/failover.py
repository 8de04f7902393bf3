"""Checkpoint-cadence vs RTO failover benchmark (``bench failover``).

Two grids:

* **cadence sweep** — for each server, crash the primary mid-window at
  several incremental-checkpoint cadences and measure what clients see:
  RTO (crash to first standby-served completion), requests lost
  end-to-end (in-flight re-issues included), client blackout, and the
  bytes shipped (full image size vs per-delta average).  The headline
  claim: a clean failover to a warm standby loses **zero** requests and
  recovers in milliseconds — orders of magnitude inside the 1 s
  downtime budget — at every cadence, with cadence only trading delta
  traffic against standby staleness.
* **fault drills** — one row per checkpoint-plane fault site (plus the
  torn-image + failed-promotion double fault): each drill must converge
  with either the primary continuing cleanly (checkpoint-side faults)
  or the standby taking over (stream/restore/promote faults), never an
  unhandled exception, never a lost request.

Wired into the CLI as ``python -m repro bench failover [--smoke]
[--json]``, which exits 1 when a ``verdicts`` entry fails (zero lost
requests, RTO inside the budget, every drill converged); the JSON lands
in ``BENCH_failover.json``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.bench.faultmatrix import (
    DRILL_GRIDS, FAILOVER_CELL_COLUMNS, run_drill_cell, run_trials,
)
from repro.bench.reporting import render_table
from repro.fleet.failover import FailoverDrill
from repro.mcr.config import DOWNTIME_BUDGET_NS, MCRConfig

SERVERS: Tuple[str, ...] = ("simple", "memcache", "httpd")
SMOKE_SERVERS: Tuple[str, ...] = ("simple", "memcache")

# Incremental-checkpoint cadences swept against RTO (ms between deltas).
CADENCES_MS: Tuple[int, ...] = (25, 100, 400)
SMOKE_CADENCES_MS: Tuple[int, ...] = (50,)

TRIALS = 3
SMOKE_TRIALS = 2

BUDGET_MS = DOWNTIME_BUDGET_NS / 1e6

# What a fault-drill row reports of its ``run_drill_cell`` cell.
DRILL_ROW_KEYS: Tuple[str, ...] = (
    "server", "site", "crash", "fired", "promoted", "cold_restored",
    "primary_survived", "standby_stale", "requests_lost", "converged",
)

# The verdicts the artifact's summary also stores.
_SUMMARY = (
    "clean_zero_loss", "rto_all_within_budget", "all_drills_converged",
    "drills_zero_loss",
)


def _sweep_row(server: str, cadence_ms: int, trials: int) -> Dict[str, Any]:
    row, runs = run_trials(
        (
            FailoverDrill(
                server,
                config=MCRConfig(checkpoint_interval_ns=cadence_ms * 1_000_000),
                crash_window=3 + trial,  # vary where in the stream the crash lands
            )
            for trial in range(trials)
        ),
        "rto",
    )
    deltas = sum(run["deltas_sent"] for run in runs)
    return {
        "server": server,
        "cadence_ms": cadence_ms,
        **row,
        "delta_kb_avg": round(
            sum(run["delta_bytes"] for run in runs) / max(deltas, 1) / 1024, 2
        ),
        "blackout_p99_ms": max(
            (run["perceived"]["blackout_ms"] for run in runs
             if run["perceived"] is not None),
            default=None,
        ),
    }


def run_failover(
    smoke: bool = False, blackbox_path: Optional[str] = None
) -> Dict[str, Any]:
    servers = SMOKE_SERVERS if smoke else SERVERS
    cadences = SMOKE_CADENCES_MS if smoke else CADENCES_MS
    trials = SMOKE_TRIALS if smoke else TRIALS
    sweep = [
        _sweep_row(server, cadence_ms, trials)
        for server in servers
        for cadence_ms in cadences
    ]
    # One drill per checkpoint-plane site (checkpoint-side faults leave the
    # primary serving, the rest are absorbed by a crash failover) plus the
    # torn-image + failed-promotion double fault.
    grid = DRILL_GRIDS["failover"]
    drills = []
    for site in (*grid.sites, grid.double):
        cell = run_drill_cell("failover", servers[0], site, blackbox_path)
        drills.append({key: cell.get(key) for key in DRILL_ROW_KEYS})
    results: Dict[str, Any] = {"sweep": sweep, "drills": drills}
    checks = verdicts(results)
    results["summary"] = {
        "downtime_budget_ms": BUDGET_MS,
        **{key: checks[key] for key in _SUMMARY},
    }
    return results


def verdicts(results: Dict[str, Any]) -> Dict[str, bool]:
    """Every sweep row lost nothing, recovered inside the downtime budget and
    kept the client SLO; every fault drill fired, converged and lost nothing."""
    sweep, drills = results["sweep"], results["drills"]
    return {
        "clean_zero_loss": all(row["requests_lost"] == 0 for row in sweep),
        "rto_all_within_budget": all(
            row["rto_p99_ms"] is not None and row["rto_p99_ms"] <= BUDGET_MS
            for row in sweep
        ),
        "sweep_slo_ok": all(row["slo_ok"] for row in sweep),
        "all_drills_fired": all(row["fired"] for row in drills),
        "all_drills_converged": all(row["converged"] for row in drills),
        "drills_zero_loss": all(row["requests_lost"] == 0 for row in drills),
    }


def render(results: Dict[str, Any]) -> str:
    return "\n".join([
        render_table(
            "Failover: checkpoint cadence vs RTO",
            ["server", "cadence_ms", "image_kb", ("delta_kb", "delta_kb_avg"),
             "rto_p50_ms", "rto_p99_ms", "blackout_p99_ms",
             ("lost", "requests_lost"), "slo_ok"],
            results["sweep"],
        ),
        "",
        render_table("Failover fault drills", FAILOVER_CELL_COLUMNS, results["drills"]),
    ])
