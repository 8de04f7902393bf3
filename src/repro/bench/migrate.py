"""Planned-migration benchmark (``bench migrate``): brownout vs crash RTO.

Two grids (the migration-plane fault drills run in ``bench faultmatrix``):

* **sweep** — pre-copy cadence × convergence threshold × server: each
  cell migrates a serving primary to a fresh target and reports the
  pre-copy rounds and bytes the policy produced, the final stop-and-copy
  size, and the client-perceived **brownout** (longest completed-response
  gap spanning the cutover).  The headline claim: a planned migration
  loses **zero** requests at every cadence and threshold, and its
  brownout — dominated by the quiescence wait, exactly like a
  whole-tree live update — stays within a small constant factor of the
  crash-failover RTO and ~40x inside the downtime budget.
* **head-to-head** — per server, the sweep's brownout at the first
  cadence and the default threshold next to the crash RTO under the same
  cadence, windows and request stream.  Each drill runs once: a run is
  fixed by its inputs, so a repeat would measure nothing new.

Wired into the CLI as ``python -m repro bench migrate [--smoke]
[--json]``, which exits 1 when a ``verdicts`` entry fails (zero lost
requests, every cell migrated inside its client SLO, the brownout inside
the downtime budget and comparable to the crash RTO); the JSON lands in
``BENCH_migrate.json``.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.bench.failover import BUDGET_MS, SERVERS, SMOKE_SERVERS
from repro.bench.harness import run_trials
from repro.bench.reporting import render_table
from repro.fleet.drill import kb
from repro.fleet.failover import FailoverDrill
from repro.fleet.migration import DEFAULT_CONVERGENCE_BYTES, MigrationDrill
from repro.mcr.config import MCRConfig

# Pre-copy cadences (ms of serving between delta rounds) × convergence
# thresholds (stop pre-copying once a round ships fewer bytes).
CADENCES_MS: Tuple[int, ...] = (20, 60)
SMOKE_CADENCES_MS: Tuple[int, ...] = (20,)
THRESHOLD_BYTES: Tuple[int, ...] = (0, 4096, 65536)
SMOKE_THRESHOLD_BYTES: Tuple[int, ...] = (4096,)

# "At most comparable": the planned brownout may not exceed this many
# multiples of the measured crash RTO.  The two decompose differently:
# brownout = quiescence wait (bounded by the longest thread sleep
# period, ~20 ms for these servers) + final copy + promote (~3 ms);
# RTO = failure-detection timeout (5 ms) + promote (~3 ms).  That puts
# a clean stop-and-copy at just under 3x the crash RTO — the same
# order, both ~40x inside the 1 s budget, and on par with the
# whole-tree live-update blackout ``bench updatetime`` measures.
COMPARABLE_FACTOR = 3.0


def _sweep_row(server: str, cadence_ms: int, threshold: int) -> Dict[str, Any]:
    config = MCRConfig(checkpoint_interval_ns=cadence_ms * 1_000_000)
    drill = MigrationDrill(server, config=config, convergence_bytes=threshold)
    row, (run,) = run_trials([drill], "brownout")
    return {
        "server": server,
        "cadence_ms": cadence_ms,
        "threshold_bytes": threshold,
        **row,
        "migrated": run.migrated and run.error is None,
        "converged_precopy": run.converged_precopy,
        "precopy_rounds": run.precopy_rounds,
        "reseeds": run.reseeds,
        "precopy_kb": kb(sum(run.precopy_bytes)),
        "stopcopy_kb": round((run.stopcopy_bytes or 0) / 1024, 2),
    }


def _head_to_head(migrate: Dict[str, Any]) -> Dict[str, Any]:
    """A sweep row's planned brownout vs the crash RTO under the same
    cadence and stream."""
    server, cadence_ms = migrate["server"], migrate["cadence_ms"]
    cadence = MCRConfig(checkpoint_interval_ns=cadence_ms * 1_000_000)
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


def run_migrate(smoke: bool = False) -> Dict[str, Any]:
    servers = SMOKE_SERVERS if smoke else SERVERS
    cadences = SMOKE_CADENCES_MS if smoke else CADENCES_MS
    thresholds = SMOKE_THRESHOLD_BYTES if smoke else THRESHOLD_BYTES
    sweep = {
        (server, cadence_ms, threshold): _sweep_row(server, cadence_ms, threshold)
        for server in servers
        for cadence_ms in cadences
        for threshold in thresholds
    }
    return {
        "sweep": list(sweep.values()),
        # The migration half is the sweep's drill at the default threshold.
        "head_to_head": [
            _head_to_head(sweep[server, cadences[0], DEFAULT_CONVERGENCE_BYTES])
            for server in servers
        ],
        "summary": {"downtime_budget_ms": BUDGET_MS},
    }


def verdicts(results: Dict[str, Any]) -> Dict[str, bool]:
    """Every sweep row migrated, lost nothing and kept its brownout inside the
    budget and the client SLO; each brownout is at most comparable to the
    crash RTO."""
    sweep = results["sweep"]
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
    }


def render(results: Dict[str, Any]) -> str:
    return "\n".join([
        render_table(
            "Planned migration: pre-copy cadence x convergence threshold",
            ["server", "cadence_ms", ("thresh_b", "threshold_bytes"),
             ("rounds", "precopy_rounds"), "precopy_kb",
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
    ])
