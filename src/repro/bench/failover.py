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
[--json]``; the JSON lands in ``BENCH_failover.json`` and CI asserts
zero lost requests on clean failover with RTO inside the budget.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.bench.faultmatrix import DRILL_GRIDS, run_drill_cell
from repro.bench.reporting import fmt_cell, render_table, trial_percentiles
from repro.fleet.failover import FailoverDrill
from repro.mcr.config import MCRConfig

SERVERS: Tuple[str, ...] = ("simple", "memcache", "httpd")
SMOKE_SERVERS: Tuple[str, ...] = ("simple", "memcache")

# Incremental-checkpoint cadences swept against RTO (ms between deltas).
CADENCES_MS: Tuple[int, ...] = (25, 100, 400)
SMOKE_CADENCES_MS: Tuple[int, ...] = (50,)

TRIALS = 3
SMOKE_TRIALS = 2

# What a fault-drill row reports of its ``run_drill_cell`` cell.
DRILL_ROW_KEYS: Tuple[str, ...] = (
    "server", "site", "crash", "fired", "promoted", "cold_restored",
    "primary_survived", "standby_stale", "requests_lost", "converged",
)


def _sweep_row(server: str, cadence_ms: int, trials: int) -> Dict[str, Any]:
    rto_ms: List[float] = []
    blackout_ms: List[float] = []
    lost = 0
    image_kb = 0
    delta_bytes = 0
    deltas = 0
    slo_ok = True
    for trial in range(trials):
        drill = FailoverDrill(
            server,
            config=MCRConfig(checkpoint_interval_ns=cadence_ms * 1_000_000),
            crash_window=3 + trial,  # vary where in the stream the crash lands
        )
        data = drill.run().to_dict()
        if data["rto_ms"] is not None:
            rto_ms.append(data["rto_ms"])
        if data["perceived"] is not None:
            blackout_ms.append(data["perceived"]["blackout_ms"])
            slo_ok = slo_ok and data["perceived"]["slo_ok"]
        lost += data["requests_lost"]
        image_kb = max(image_kb, data["image_kb"])
        delta_bytes += data["delta_bytes"]
        deltas += data["deltas_sent"]
        slo_ok = slo_ok and data["error"] is None and data["served_after"]
    rto_p50, rto_p99 = trial_percentiles(rto_ms)
    return {
        "server": server,
        "cadence_ms": cadence_ms,
        "trials": trials,
        "image_kb": image_kb,
        "delta_kb_avg": round(delta_bytes / max(deltas, 1) / 1024, 2),
        "rto_p50_ms": rto_p50,
        "rto_p99_ms": rto_p99,
        "blackout_p99_ms": trial_percentiles(blackout_ms)[1],
        "requests_lost": lost,
        "slo_ok": slo_ok,
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
    budget_ms = MCRConfig().downtime_budget_ns / 1e6
    summary = {
        "downtime_budget_ms": budget_ms,
        "clean_zero_loss": all(row["requests_lost"] == 0 for row in sweep),
        "rto_all_within_budget": all(
            row["rto_p99_ms"] is not None and row["rto_p99_ms"] <= budget_ms
            for row in sweep
        ),
        "all_drills_converged": all(row["converged"] for row in drills),
        "drills_zero_loss": all(row["requests_lost"] == 0 for row in drills),
    }
    return {"sweep": sweep, "drills": drills, "summary": summary}


def render(results: Dict[str, Any]) -> str:
    sweep_rows = [
        [
            row["server"],
            row["cadence_ms"],
            row["image_kb"],
            row["delta_kb_avg"],
            fmt_cell(row["rto_p50_ms"]),
            fmt_cell(row["rto_p99_ms"]),
            fmt_cell(row["blackout_p99_ms"]),
            row["requests_lost"],
            fmt_cell(row["slo_ok"]),
        ]
        for row in results["sweep"]
    ]
    drill_rows = [
        [
            row["server"],
            row["site"],
            fmt_cell(row["crash"]),
            fmt_cell(row["fired"]),
            fmt_cell(row["promoted"]),
            fmt_cell(row["cold_restored"]),
            fmt_cell(row["primary_survived"]),
            row["requests_lost"],
            fmt_cell(row["converged"]),
        ]
        for row in results["drills"]
    ]
    summary = results["summary"]
    parts = [
        render_table(
            "Failover: checkpoint cadence vs RTO",
            ["server", "cadence_ms", "image_kb", "delta_kb", "rto_p50_ms",
             "rto_p99_ms", "blackout_p99_ms", "lost", "slo_ok"],
            sweep_rows,
        ),
        "",
        render_table(
            "Failover fault drills",
            ["server", "site", "crash", "fired", "promoted", "cold",
             "primary", "lost", "converged"],
            drill_rows,
            note=(
                f"clean_zero_loss={fmt_cell(summary['clean_zero_loss'])}  "
                f"rto_within_budget={fmt_cell(summary['rto_all_within_budget'])}  "
                f"drills_converged={fmt_cell(summary['all_drills_converged'])}"
            ),
        ),
    ]
    return "\n".join(parts)
