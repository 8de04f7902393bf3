"""The fault matrix: injection sites × servers, every cell must survive.

For each evaluation server and each fault site in
``repro.mcr.faults.SITES``: boot the server, run a short workload (and,
where the protocol supports it, park a couple of held connections so the
restore-phase sites have work to fail), arm a ``FaultPlan`` for the site,
and trigger a live update.  Every cell runs through
``repro.replay.run_scenario`` — the same re-executable unit the
record/replay and fuzzing planes use — so with a trace path configured
each failed cell leaves a ``blackbox.json``/trace pair that
``python -m repro replay`` re-executes bit-identically to the failure.
A cell survives when ``ScenarioOutcome.violations`` — the one judge of
the paper's safety property (§3, §6.3) the fuzzer also asks — finds
nothing: the update returned, ended committed XOR rolled back, a rollback
was fingerprint-verified and left a black box, and the surviving version
answers a probe with zero errors.  The grid adds two expectations of its
own, after ``arm`` (``repro.replay.scenario``) has built the cell's plan:

* ``commit.critical`` fires *after* the point of no return, so the
  expected outcome is a committed update with the fault contained
  (roll-forward), the new version serving; any other fired fault must
  roll back;
* ``rollback`` alone would never fire (no rollback happens without a
  primary fault), so ``arm`` pairs it with ``transfer.memory`` — the
  double fault — and the cell additionally requires ``rollback_failed``
  to be flagged while the old version still serves.

Wired into the CLI as ``python -m repro bench faultmatrix [--smoke]
[--json]``; the JSON lands in ``BENCH_faultmatrix.json``, CI fails on any
drift of the smoke run from the committed copy, and tier-1 asserts every
cell's ``survived`` and ``old_version_intact`` booleans of that copy.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.bench.reporting import render_table
from repro.fleet.failover import FailoverDrill
from repro.fleet.migration import MigrationDrill
from repro.mcr.config import MCRConfig
from repro.mcr.faults import CHECKPOINT_SITES, MIGRATION_SITES, UPDATE_SITES
from repro.replay.scenario import arm, default_spec, run_scenario
from repro.replay.trace import TraceLog
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


class DrillGrid(NamedTuple):
    """One drill kind's fault grid, how its cells run, and what they report."""

    clean_label: str            # the unarmed cell's "site"
    sites: Tuple[str, ...]      # one single-fault cell each
    double: str                 # the double-fault cell
    fields: Tuple[str, ...]     # result fields a cell reports verbatim
    drill: Callable[..., Any]   # the drill class a cell runs
    settings: Dict[str, int]    # MCRConfig fields every cell sets
    # Sites that leave the primary serving when they fire: a cell armed
    # with these alone runs without a crash (None: the drill never crashes).
    continue_sites: Optional[Tuple[str, ...]]
    derived: Tuple[Tuple[str, Callable[[Any], object]], ...]  # cell keys read off the result


DRILL_GRIDS = {
    "failover": DrillGrid(
        "clean-crash",
        tuple(CHECKPOINT_SITES),
        "checkpoint.write+standby.promote",
        ("promoted", "cold_restored", "standby_stale", "stale_lag", "rto_ms"),
        FailoverDrill,
        {"checkpoint_interval_ns": 25_000_000},
        ("checkpoint.capture", "checkpoint.write", "checkpoint.delta"),
        (
            ("recovered_on_standby", lambda result: result.recovered),
            ("blackbox", lambda result: result.blackbox is not None),
        ),
    ),
    "migration": DrillGrid(
        "clean-migrate",
        tuple(MIGRATION_SITES),
        "migrate.precopy+migrate.cutover",
        ("migrated", "aborted", "precopy_rounds", "precopy_failures",
         "reseeds", "brownout_ms"),
        MigrationDrill,
        {},
        None,
        # An aborted cutover stamps the flight recorder with the site that
        # killed it — the post-mortem the cell must match.
        (("blackbox_site", lambda result: (result.blackbox or {}).get("failure_site")),),
    ),
}
_SHARED_CELL_FIELDS = (
    "fired_sites", "primary_survived", "requests_lost", "served_after", "error",
)


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


# How a drill cell renders, wherever a bench tabulates one.  Every key read
# here is one ``bench failover`` keeps of its cells (``DRILL_ROW_KEYS``).
FAILOVER_CELL_COLUMNS = (
    "server", "site", "crash", "fired", ("recovery", _failover_end_state),
    ("stale", "standby_stale"), ("lost", "requests_lost"), "converged",
)
MIGRATION_CELL_COLUMNS = (
    "server", "site", "fired", ("end state", _migration_end_state),
    ("rounds", "precopy_rounds"), ("round_fails", "precopy_failures"),
    ("lost", "requests_lost"), "converged",
)


def run_drill_cell(
    kind: str,
    server: str,
    site: Optional[str],
    blackbox_path: Optional[str] = None,
) -> Dict[str, object]:
    """One failover or migration drill: arm ``site`` (None = clean), never raise.

    The convergence contract mirrors the update grid's survive/intact
    pair (``DrillResult.converged``): every cell ends with exactly one
    of {the peer took over, the primary kept serving} — the standby
    recovered XOR the primary continued cleanly; migrated XOR the
    primary kept serving (a pre-copy fault costs a round, a stop-and-copy
    or cutover fault aborts) — and zero unhandled exceptions either way.
    """
    grid = DRILL_GRIDS[kind]
    plan = arm(site)
    armed = site.split("+") if site else []
    cell: Dict[str, object] = {
        "server": server,
        "site": site or grid.clean_label,
        "armed": armed,
        "raised": False,
    }
    options = {}
    if grid.continue_sites is not None:
        options["crash"] = cell["crash"] = not armed or any(
            s not in grid.continue_sites for s in armed
        )
    config = MCRConfig(faults=plan, blackbox_path=blackbox_path, **grid.settings)
    try:
        result = grid.drill(server, config=config, **options).run()
    except BaseException as error:  # the drill's contract says never
        # Report every key a finished cell does, so tables show RAISED.
        cell.update(dict.fromkeys(
            ("fired", *_SHARED_CELL_FIELDS, *grid.fields, *dict(grid.derived))
        ))
        cell.update(raised=True, error=repr(error), converged=False)
        return cell
    data = result.to_dict()
    cell.update({key: data[key] for key in _SHARED_CELL_FIELDS + grid.fields})
    cell.update(fired=bool(plan.injected), converged=result.converged)
    cell.update({key: derive(result) for key, derive in grid.derived})
    return cell


def run_trials(
    drills: Iterable[Any], headline: str
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Run each drill once: what every sweep row reports, and each trial's result.

    ``headline`` names the drills' headline number (``rto`` /
    ``brownout``), reported as the upper median and the worst of the
    trials that produced one — with the two or three trials a sweep cell
    runs, nearest-rank p99 *is* the maximum.  ``slo_ok`` holds when every
    trial ended serving, without a drill error, inside its client SLO.
    """
    trials = [drill.run().to_dict() for drill in drills]
    samples = sorted(
        trial[f"{headline}_ms"] for trial in trials
        if trial[f"{headline}_ms"] is not None
    )
    row = {
        "trials": len(trials),
        "image_kb": max(trial["image_kb"] for trial in trials),
        f"{headline}_p50_ms": samples[len(samples) // 2] if samples else None,
        f"{headline}_p99_ms": samples[-1] if samples else None,
        "requests_lost": sum(trial["requests_lost"] for trial in trials),
        "slo_ok": all(
            trial["error"] is None
            and trial["served_after"]
            and (trial["perceived"] is None or trial["perceived"]["slo_ok"])
            for trial in trials
        ),
    }
    return row, trials


def run_drill_cells(
    kind: str, server: str, blackbox_path: Optional[str]
) -> List[Dict[str, object]]:
    """One drill grid: the clean run + every plane site + the double fault."""
    grid = DRILL_GRIDS[kind]
    return [
        run_drill_cell(kind, server, site, blackbox_path=blackbox_path)
        for site in (None, *grid.sites, grid.double)
    ]


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
    # The drill grids (clean run + each plane site + the double fault) must
    # each converge: standby recovered XOR primary continued; migrated XOR
    # primary kept serving.  Their post-mortems go to files of their own so
    # the update grid's black box (which names the last update-cell fault)
    # is never clobbered.
    failover_cells = run_drill_cells("failover", names[0], beside("_failover.json"))
    migration_cells = run_drill_cells("migration", names[0], beside("_migration.json"))
    results = {
        "servers": list(names),
        "rolling_servers": list(rolling_names),
        "sites": list(UPDATE_SITES),
        "failover_sites": list(CHECKPOINT_SITES),
        "migration_sites": list(MIGRATION_SITES),
        "smoke": smoke,
        "cells": cells,
        "failover_cells": failover_cells,
        "failover_any_raised": any(c["raised"] for c in failover_cells),
        "migration_cells": migration_cells,
        "migration_any_raised": any(c["raised"] for c in migration_cells),
        "cells_total": len(cells),
        "cells_fired": sum(1 for c in cells if c["fired"]),
        "rolling_cells": sum(1 for c in cells if c["mode"] == "rolling"),
        "any_raised": any(c["raised"] for c in cells),
    }
    checks = verdicts(results)
    results.update({key: checks[key] for key in _STORED_VERDICTS})
    return results


# The verdicts the artifact also stores, under the same names.
_STORED_VERDICTS = (
    "all_survived", "all_old_version_intact", "rolling_all_survived",
    "all_blackbox_match", "failover_all_converged", "migration_all_converged",
)


def verdicts(results: Dict[str, object]) -> Dict[str, bool]:
    """Every update cell survived with the old version intact (rolling rows
    included) and left a black box naming its site when it rolled back;
    every drill converged; nothing raised."""
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
            FAILOVER_CELL_COLUMNS,
            results["failover_cells"],
        ),
        "",
        render_table(
            "Migration drills: planned-migration sites x cutover",
            MIGRATION_CELL_COLUMNS,
            results["migration_cells"],
        ),
    ])
