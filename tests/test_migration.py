"""Planned-migration drills: pre-copy convergence, cutover, fault aborts.

The contract under test: a clean planned migration moves a serving tree
to a fresh target with **zero** lost requests and a brownout well inside
the downtime budget; a pre-copy fault costs a round but the migration
still completes; a stop-and-copy or cutover fault aborts cleanly with
the primary still serving.  Every drill — clean or faulted — ends with
migrated XOR primary-kept-serving, and ``run`` never raises.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.faultmatrix import DRILL_GRIDS
from repro.bench.migrate import (
    COMPARABLE_FACTOR, SMOKE_CADENCES_MS, _head_to_head, _sweep_row,
)
from repro.fleet.migration import DEFAULT_CONVERGENCE_BYTES, MigrationDrill
from repro.mcr.config import DOWNTIME_BUDGET_NS, MCRConfig
from repro.mcr.faults import DEFAULT_ERRORS, MIGRATION_SITES, SITES, FaultPlan

# The whole migration grid: the clean migration (None), every
# migration-plane site, and the pre-copy + cutover double fault.
_, _, _SITES, _DOUBLE, _SETTINGS = DRILL_GRIDS["migration"]
FAULT_CELLS = (None, *_SITES, _DOUBLE)


def run_migration_cell(server, site, blackbox_path=None):
    return MigrationDrill.cell(server, site, blackbox_path, **_SETTINGS)


def test_clean_migration_loses_nothing():
    result = MigrationDrill("simple", config=MCRConfig()).run()
    assert result.error is None
    assert result.migrated and not result.aborted
    assert not result.primary_survived
    assert result.served_after
    assert result.requests_lost == 0
    assert result.precopy_rounds >= 1
    assert result.stopcopy_bytes is not None
    assert result.brownout_ns is not None
    assert result.brownout_ns < DOWNTIME_BUDGET_NS
    assert result.perceived is not None and result.perceived["slo_ok"]


@pytest.mark.parametrize("site", FAULT_CELLS)
def test_fault_cells_converge_without_raising(site, tmp_path):
    cell = run_migration_cell(
        "simple", site, blackbox_path=str(tmp_path / "blackbox.json")
    )
    assert not cell["raised"], cell.get("error")
    assert cell["error"] is None
    assert cell["fired"] == (site is not None), f"armed fault at {site}"
    assert cell["served_after"]
    assert cell["requests_lost"] == 0
    # Exactly one end state per cell, never both, never neither.
    assert cell["migrated"] != cell["primary_survived"]
    assert cell["converged"]


def test_planned_brownout_is_at_most_comparable_to_the_crash_rto():
    # Same cadence, same windows, same request stream: the planned
    # brownout may not exceed COMPARABLE_FACTOR multiples of the crash RTO.
    row = _head_to_head(
        _sweep_row("simple", SMOKE_CADENCES_MS[0], DEFAULT_CONVERGENCE_BYTES)
    )
    assert row["migrate_lost"] == 0 and row["failover_lost"] == 0
    assert row["migrate_brownout_ms"] is not None
    assert row["failover_rto_ms"] is not None
    assert (
        row["migrate_brownout_ms"] <= COMPARABLE_FACTOR * row["failover_rto_ms"]
    )
    assert row["comparable"]


def test_precopy_fault_costs_a_round_not_the_migration(tmp_path):
    cell = run_migration_cell(
        "simple", "migrate.precopy", blackbox_path=str(tmp_path / "blackbox.json")
    )
    assert cell["migrated"]
    assert cell["precopy_failures"] >= 1


def test_stopcopy_fault_aborts_back_to_the_primary(tmp_path):
    blackbox_path = tmp_path / "blackbox.json"
    cell = run_migration_cell(
        "simple", "migrate.stopcopy", blackbox_path=str(blackbox_path)
    )
    assert not cell["migrated"]
    assert cell["primary_survived"]
    assert cell["aborted"]
    # The aborted cutover dumped a black box naming the site that
    # killed it, both in the cell and on disk.
    assert cell["blackbox_site"] == "migrate.stopcopy"
    dumped = json.loads(blackbox_path.read_text())
    assert dumped["reason"] == "migrate.aborted"
    assert dumped["failure_site"] == "migrate.stopcopy"


def test_dropped_precopy_delta_reseeds_the_target():
    # A stream fault drops a captured delta on the floor; the next round
    # arrives with a sequence gap, the target goes stale, and the drill
    # repairs it with a fresh full-image reseed — then still migrates.
    config = MCRConfig(faults=FaultPlan().at("stream.send"))
    result = MigrationDrill("simple", config=config).run()
    assert result.error is None
    assert result.migrated
    assert result.precopy_failures >= 1
    assert result.reseeds >= 1
    assert result.requests_lost == 0


def test_zero_threshold_never_converges_but_still_cuts():
    # convergence_bytes=0 can never be satisfied (every delta ships at
    # least the fingerprint round-trip's dirty pages), so the policy
    # falls back to the max-round / forced-cut path.
    result = MigrationDrill(
        "simple",
        config=MCRConfig(checkpoint_interval_ns=20_000_000),
        convergence_bytes=0,
    ).run()
    assert result.migrated
    assert not result.converged_precopy
    assert result.requests_lost == 0


def test_sweep_row_reports_a_zero_threshold_row_as_not_converged():
    # The drill above, as one ``bench migrate`` sweep row: the row says
    # what its drills did, not what the threshold implies.
    row = _sweep_row("simple", 20, 0)
    assert row["converged_precopy"] is False
    assert row["migrated"]


def test_huge_threshold_converges_on_the_first_round():
    result = MigrationDrill(
        "simple",
        config=MCRConfig(checkpoint_interval_ns=20_000_000),
        convergence_bytes=1 << 30,
    ).run()
    assert result.migrated
    assert result.converged_precopy
    assert result.precopy_rounds == 1


def test_migration_sites_registered_in_the_fault_plane():
    assert set(MIGRATION_SITES) <= set(SITES)
    assert set(MIGRATION_SITES) <= set(DEFAULT_ERRORS)
