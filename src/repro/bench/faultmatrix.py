"""The fault matrix: injection sites × servers, every cell must survive.

For each evaluation server and each fault site in
``repro.mcr.faults.SITES``: boot the server, run a short workload (and,
where the protocol supports it, park a couple of held connections so the
restore-phase sites have work to fail), arm a ``FaultPlan`` for the site,
and trigger a live update.  Every cell runs through
``repro.scenario.run_scenario`` — the same re-executable unit the
record/replay and fuzzing planes use — so with a trace path configured
each failed cell leaves a ``blackbox.json``/trace pair that
``python -m repro replay`` re-executes bit-identically to the failure.
A cell survives when ``ScenarioOutcome.violations`` — the one judge of
the paper's safety property (§3, §6.3) the fuzzer also asks — finds
nothing: the update returned, ended committed XOR rolled back, a rollback
was fingerprint-verified and left a black box, and the surviving version
answers a probe with zero errors.  The grid adds two expectations of its
own, after ``arm`` (``repro.mcr.controller``) has built the cell's plan:

* ``commit.critical`` fires *after* the point of no return, so the
  expected outcome is a committed update with the fault contained
  (roll-forward), the new version serving; any other fired fault must
  roll back;
* ``rollback`` alone would never fire (no rollback happens without a
  primary fault), so ``arm`` pairs it with ``transfer.memory`` — the
  double fault — and the cell additionally requires ``rollback_failed``
  to be flagged while the old version still serves.

The two drill grids (``DRILL_GRIDS``) run here and in no other bench,
on the first server: the clean drill, each plane site and a double
fault.  A cell is ``Drill.cell``'s row; it converges when
``DrillResult.violations``, the one judge of a drill, finds nothing.

Wired into the CLI as ``python -m repro bench faultmatrix [--smoke]
[--json]``; the JSON lands in ``BENCH_faultmatrix.json``, CI fails on any
drift of the smoke run from the committed copy, and tier-1 asserts every
cell's ``survived`` and ``old_version_intact`` booleans of that copy.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bench.reporting import render_table
from repro.fleet.failover import FailoverDrill
from repro.fleet.migration import MigrationDrill
from repro.mcr.controller import arm
from repro.mcr.faults import CHECKPOINT_SITES, MIGRATION_SITES, UPDATE_SITES
from repro.replay.trace import TraceLog
from repro.scenario import default_spec, run_scenario
from repro.servers.catalog import CATALOG

FULL_SERVERS = tuple(CATALOG)  # a server joins the full grid by having a row
SMOKE_SERVERS = ("simple", "vsftpd", "memcache")
# Servers re-run through the whole site grid in rolling update mode (the
# multi-worker pools where per-batch hand-off is meaningful).
ROLLING_FULL_SERVERS = ("httpd", "nginx")
ROLLING_SMOKE_SERVERS = ("httpd",)


def run_cell(
    server: str,
    site: str,
    blackbox_path: Optional[str] = None,
    mode: str = "whole-tree",
    trace_path: Optional[str] = None,
) -> Dict[str, object]:
    spec = default_spec(server, mode=mode, faults=arm(site).to_spec())
    trace = TraceLog.record(spec) if trace_path else None
    outcome = run_scenario(
        spec,
        trace=trace,
        trace_path=trace_path,
        blackbox_path=blackbox_path,
        # A shared trace path must stay paired with the shared blackbox
        # path: only cells that dumped a post-mortem write either file.
        trace_save="on-blackbox",
    )
    plan = outcome.plan
    result = outcome.result
    update = outcome.update
    fired = [s for s, _hit in plan.injected]
    cell: Dict[str, object] = {
        "server": server,
        "site": site,
        "mode": mode,
        "armed": plan.armed_sites(),
        "fired": bool(fired),
        "fired_sites": fired,
        "raised": outcome.raised,
        **update._asdict(),
        "error": type(result.error).__name__ if result and result.error else None,
    }
    # Black-box post-mortem: every failed cell must have dumped one whose
    # most recent injected-fault entry names the site we actually fired.
    blackbox = result.blackbox if result is not None else None
    if blackbox is not None:
        last_fault = blackbox.get("last_fault")
        last_fault_site = (
            last_fault["payload"].get("site") if last_fault else None
        )
        cell["blackbox"] = {
            "reason": blackbox.get("reason"),
            "failure_site": blackbox.get("failure_site"),
            "last_fault_site": last_fault_site,
            "entries": len(blackbox.get("entries", [])),
            "bytes_used": blackbox.get("bytes_used"),
            "samples_taken": blackbox.get("samples_taken"),
            "path": result.blackbox_path,
        }
        cell["blackbox_matches_site"] = bool(fired) and last_fault_site == fired[-1]
        if trace is not None and trace.path:
            cell["trace_path"] = trace.path
    else:
        cell["blackbox_matches_site"] = None
    if outcome.probe_error is not None:
        cell["probe_error"] = outcome.probe_error
    cell["probe_completed"] = outcome.probe_completed
    cell["probe_errors"] = outcome.probe_errors
    # Survival: the update contract held, and the grid's two expectations
    # with it — a fired fault rolls back unless it fired past the point of
    # no return (``commit.critical`` rolls forward), and the double-fault
    # cell flags its failed rollback loudly.
    survived = not outcome.violations() and update.committed == (
        site == "commit.critical" or not fired
    )
    if site == "rollback" and update.rolled_back:
        survived = survived and update.rollback_failed
    cell["survived"] = survived
    # Old-version-intact: after a rollback, the fingerprint must match the
    # checkpoint.  Committed cells (fault never fired, or contained past
    # the point of no return) vacuously keep the property if they serve.
    if update.rolled_back:
        cell["old_version_intact"] = update.rollback_verified is True
    else:
        cell["old_version_intact"] = survived
    return cell


# Per drill kind: the drill, its clean cell's label, one single-fault cell
# per plane site, the double-fault cell, and the MCRConfig fields every
# cell sets.  ``Drill.cell`` runs, judges and reports each cell.
DRILL_GRIDS = {
    "failover": (
        FailoverDrill, "clean-crash", tuple(CHECKPOINT_SITES),
        "checkpoint.write+standby.promote", {"checkpoint_interval_ns": 25_000_000},
    ),
    "migration": (
        MigrationDrill, "clean-migrate", tuple(MIGRATION_SITES),
        "migrate.precopy+migrate.cutover", {},
    ),
}


def run_faultmatrix(
    smoke: bool = False, blackbox_path: Optional[str] = None
) -> Dict[str, object]:
    names = SMOKE_SERVERS if smoke else FULL_SERVERS
    rolling_names = ROLLING_SMOKE_SERVERS if smoke else ROLLING_FULL_SERVERS

    def beside(suffix: str) -> Optional[str]:
        return blackbox_path.replace(".json", suffix) if blackbox_path else None

    # The update grid covers the live-update pipeline sites only (the
    # checkpoint/standby sites belong to the failover drills below).  Its
    # rolling rows hold the same safety property when the update hands
    # workers off one batch at a time: each fault still ends in exactly one
    # of {committed, rolled back}, the rollback verified batch by batch
    # against the scoped fingerprints.  Every cell records a trace beside
    # its black box: the pair that survives the run (both only written on
    # a failed update) is what ``python -m repro replay <blackbox>
    # --to-failure`` re-executes.
    cells = [
        run_cell(server, site, blackbox_path=blackbox_path, mode=mode,
                 trace_path=beside(".trace.json"))
        for mode, servers in (("whole-tree", names), ("rolling", rolling_names))
        for server in servers
        for site in UPDATE_SITES
    ]
    results = {
        "servers": list(names),
        "rolling_servers": list(rolling_names),
        "sites": list(UPDATE_SITES),
        "smoke": smoke,
        "cells": cells,
        "cells_total": len(cells),
        "cells_fired": sum(1 for c in cells if c["fired"]),
        "rolling_cells": sum(1 for c in cells if c["mode"] == "rolling"),
        "any_raised": any(c["raised"] for c in cells),
    }
    # The drill grids run on the first server.  Their post-mortems go to
    # files of their own so the update grid's black box (which names the
    # last update-cell fault) is never clobbered.
    for kind, (drill, clean, sites, double, settings) in DRILL_GRIDS.items():
        rows = [
            {**drill.cell(names[0], site, beside(f"_{kind}.json"), **settings),
             "site": site or clean}
            for site in (None, *sites, double)
        ]
        results.update({f"{kind}_sites": list(sites), f"{kind}_cells": rows,
                        f"{kind}_any_raised": any(row["raised"] for row in rows)})
    return results


def verdicts(results: Dict[str, object]) -> Dict[str, bool]:
    """Every update cell survived with the old version intact (rolling rows
    included) and left a black box naming its site when it rolled back;
    every drill converged (``DrillResult.violations`` found nothing);
    nothing raised."""
    cells = results["cells"]
    drills = results["failover_cells"] + results["migration_cells"]
    rolling = [c for c in cells if c["mode"] == "rolling"]
    return {
        "all_survived": all(c["survived"] for c in cells),
        "all_old_version_intact": all(c["old_version_intact"] for c in cells),
        "rolling_all_survived": bool(rolling) and all(c["survived"] for c in rolling),
        # Every rolled-back cell must have produced a black box whose last
        # injected fault matches the site the cell armed and fired.
        "all_blackbox_match": all(
            c["blackbox_matches_site"] is True for c in cells if c["rolled_back"]
        ),
        "failover_all_converged": all(c["converged"] for c in results["failover_cells"]),
        "migration_all_converged": all(c["converged"] for c in results["migration_cells"]),
        "none_raised": not any(c["raised"] for c in cells + drills),
    }


def _failover_end_state(cell) -> str:
    if cell["cold_restored"]:
        return "cold-restore"
    if cell["promoted"]:
        return "standby"
    return "primary" if cell["primary_survived"] else "RAISED"


def _migration_end_state(cell) -> str:
    if cell["migrated"]:
        return "migrated"
    return "primary" if cell["primary_survived"] else "RAISED"


def _update_outcome(cell) -> str:
    if cell["committed"]:
        return "commit!" if cell["fired"] else "commit"
    return "rollback" if cell["rolled_back"] else "RAISED"


def render(results: Dict[str, object]) -> str:
    return "\n".join([
        render_table(
            "Fault matrix: injected failure sites x servers",
            [
                "server", "mode", "site",
                ("fired", lambda cell: "yes" if cell["fired"] else None),
                ("outcome", _update_outcome), ("verified", "rollback_verified"),
                "survived", ("intact", "old_version_intact"),
            ],
            results["cells"],
            note=(
                "outcome commit! = fault fired past the point of no return and "
                "was contained (roll-forward); verified = old-tree fingerprint "
                "matched its checkpoint after rollback"
            ),
        ),
        f"{results['cells_total']} cells "
        f"({len(results['servers'])} servers x {len(results['sites'])} sites, "
        f"+{results['rolling_cells']} rolling), "
        f"{results['cells_fired']} faults fired",
        "",
        render_table(
            "Failover drills: checkpoint-plane sites x crash recovery",
            [
                "server", "site", "crash", "fired", ("recovery", _failover_end_state),
                ("stale", "standby_stale"), ("lost", "requests_lost"), "converged",
            ],
            results["failover_cells"],
        ),
        "",
        render_table(
            "Migration drills: planned-migration sites x cutover",
            [
                "server", "site", "fired", ("end state", _migration_end_state),
                ("rounds", "precopy_rounds"), ("round_fails", "precopy_failures"),
                ("lost", "requests_lost"), "converged",
            ],
            results["migration_cells"],
        ),
    ])
