"""Warm-standby failover drills: clean crashes, injected faults, staleness.

The robustness contract under test: a primary crash with a warm standby
loses zero requests and recovers within the downtime budget, and every
fault site in the checkpoint plane converges to exactly one of two
outcomes — recovered on the standby (or cold-restored from the durable
image) XOR the primary continued cleanly — without ever raising out of
the drill.
"""

from __future__ import annotations

import pytest

from repro.bench.faultmatrix import DRILL_GRIDS
from repro.checkpoint import capture_delta
from repro.fleet.drill import SETTLE_NS, DrillResult
from repro.fleet.failover import FailoverDrill, FailoverResult
from repro.fleet.migration import MigrationResult
from repro.fleet.node import Node
from repro.mcr.config import DOWNTIME_BUDGET_NS, MCRConfig
from repro.mcr.faults import CHECKPOINT_SITES, DEFAULT_ERRORS, SITES, FaultPlan

# The whole failover grid: the clean crash (None), every checkpoint-plane
# site, and the torn-image + failed-promotion double fault.
_, _, _SITES, _DOUBLE, _SETTINGS = DRILL_GRIDS["failover"]
FAULT_CELLS = (None, *_SITES, _DOUBLE)


def run_failover_cell(server, site, blackbox_path=None):
    return FailoverDrill.cell(server, site, blackbox_path, **_SETTINGS)


_SHARED_KEYS = [
    "server", "primary_survived", "served_after", "requests_sent",
    "requests_completed", "requests_lost", "reissued", "image_kb",
    "fired_sites", "perceived", "blackbox", "error",
]


@pytest.mark.parametrize("result, keys", [
    (DrillResult("simple"), _SHARED_KEYS),
    (FailoverResult("simple"), _SHARED_KEYS + [
        "crashed", "promoted", "cold_restored", "rto_ms", "delta_bytes",
        "deltas_sent", "checkpoint_failures", "standby_stale", "stale_lag",
    ]),
    (MigrationResult("simple"), _SHARED_KEYS + [
        "migrated", "aborted", "abort_reason", "reseeds", "precopy_rounds",
        "precopy_failures", "precopy_bytes", "precopy_kb_total",
        "converged_precopy", "stopcopy_bytes", "brownout_ms",
    ]),
], ids=["drill", "failover", "migration"])
def test_result_reports_exactly_its_keys(result, keys):
    assert list(result.to_dict()) == keys


def test_clean_failover_loses_nothing():
    config = MCRConfig(checkpoint_interval_ns=25_000_000)
    result = FailoverDrill("simple", config=config).run()
    assert result.error is None
    assert result.crashed and result.promoted
    assert result.requests_lost == 0
    assert result.served_after
    assert result.rto_ns is not None
    assert result.rto_ns < DOWNTIME_BUDGET_NS
    assert result.perceived is not None and result.perceived["slo_ok"]


def test_no_crash_drill_is_a_quiet_baseline():
    config = MCRConfig(checkpoint_interval_ns=25_000_000)
    result = FailoverDrill("simple", config=config, crash=False).run()
    assert result.error is None
    assert not result.crashed and not result.promoted
    assert result.requests_lost == 0
    assert result.primary_survived
    assert result.deltas_sent > 0


@pytest.mark.parametrize("site", FAULT_CELLS)
def test_fault_cells_converge_without_raising(site, tmp_path):
    cell = run_failover_cell(
        "simple", site, blackbox_path=str(tmp_path / "blackbox.json")
    )
    assert not cell["raised"], cell.get("error")
    assert cell["error"] is None
    assert cell["fired"] == (site is not None), f"armed fault at {site}"
    assert cell["served_after"]
    assert cell["requests_lost"] == 0
    # Exactly one recovery story per cell, never both, never neither.
    assert cell["recovered_on_standby"] != cell["primary_survived"]
    assert cell["converged"]


def test_stream_faults_leave_a_stale_but_promotable_standby(tmp_path):
    cell = run_failover_cell(
        "simple", "stream.send", blackbox_path=str(tmp_path / "blackbox.json")
    )
    assert cell["standby_stale"]
    assert cell["stale_lag"] > 0
    assert cell["promoted"] and cell["converged"]


def test_torn_write_plus_dead_standby_cold_restores(tmp_path):
    cell = run_failover_cell(
        "simple",
        "checkpoint.write+standby.promote",
        blackbox_path=str(tmp_path / "blackbox.json"),
    )
    assert cell["cold_restored"]
    assert not cell["primary_survived"]
    assert cell["converged"]


def test_every_site_has_a_default_error():
    assert set(DEFAULT_ERRORS) == set(SITES)
    assert set(CHECKPOINT_SITES) <= set(SITES)


def test_drill_never_raises_even_with_all_sites_armed(tmp_path):
    plan = FaultPlan()
    for site in CHECKPOINT_SITES:
        plan.at(site)
    config = MCRConfig(
        faults=plan,
        checkpoint_interval_ns=25_000_000,
        blackbox_path=str(tmp_path / "blackbox.json"),
    )
    result = FailoverDrill("simple", config=config).run()
    assert result.error is None
    assert result.served_after


# -- the cadence tick's structural-drift repair path ---------------------------


def _booted_drill(tmp_path):
    """A drill warmed up by hand to where the cadence ticks happen.

    Built without ``run()``, so it is given the durable image path that
    ``run()`` would otherwise supply.
    """
    config = MCRConfig(checkpoint_interval_ns=25_000_000)
    drill = FailoverDrill(
        "simple", config=config, checkpoint_path=str(tmp_path / "primary.img")
    )
    result = FailoverResult("simple")
    drill.primary = Node.boot("simple", node_id=0, config=config)
    drill.primary.serve(4)
    drill.primary.drain()
    drill.primary.settle(SETTLE_NS)
    assert drill._cut_full(result)
    drill._boot_standby(result)
    assert drill.standby is not None
    return drill, result


def test_cadence_tick_structural_drift_resyncs_the_standby(tmp_path):
    drill, result = _booted_drill(tmp_path)
    try:
        old_image_id = drill.last_image.image_id
        # A phantom baseline entry makes the live mapping set differ
        # from the baseline, so capture_delta reports structural drift
        # (None) — the same signal a fork/exit/mmap produces.
        drill.baseline.mapping_seqs[(9999, 0x7F000000)] = 0
        drill._cadence_tick(result)
        standby = drill.standby
        # The drift tick cut a fresh full image (no delta shipped) and
        # resynced the standby onto it: applied_seq back to zero.
        assert result.deltas_sent == 0
        assert drill.last_image.image_id != old_image_id
        assert standby.image_id == drill.last_image.image_id
        assert standby.applied_seq == 0 and not standby.stale
        # The next tick chains gaplessly off the *new* image id...
        drill._cadence_tick(result)
        assert result.deltas_sent == 1
        assert standby.applied_seq == 1 and not standby.stale
        # ...and the resynced standby is promotable.
        assert standby.promote() is standby.node
    finally:
        drill._teardown()


def test_dropped_delta_gap_goes_stale_then_resync_recovers(tmp_path):
    drill, result = _booted_drill(tmp_path)
    try:
        # Cut a delta and drop it on the floor (never streamed): the
        # baseline advances past a sequence the standby will never see.
        dropped = capture_delta(drill.primary, drill.baseline, drill.config)
        assert dropped is not None and dropped.meta["seq"] == 1
        drill._cadence_tick(result)  # the next delta arrives with a gap
        standby = drill.standby
        assert standby.stale
        # The same repair the drift path performs: fresh image + resync.
        assert drill._cut_full(result)
        standby.resync(drill.last_image)
        assert not standby.stale and standby.applied_seq == 0
        assert standby.image_id == drill.last_image.image_id
        assert standby.promote() is standby.node
    finally:
        drill._teardown()


# -- a resync whose restore fails --------------------------------------------


def _booted_drill_with_restore_fault(tmp_path):
    """``_booted_drill``, with the next ``restore.image`` armed to fail."""
    drill, result = _booted_drill(tmp_path)
    config = MCRConfig(
        checkpoint_interval_ns=25_000_000,
        faults=FaultPlan().at("restore.image"),
    )
    drill.config = drill.standby.config = config
    return drill, result


def test_failed_resync_keeps_the_previous_tree_and_goes_stale(tmp_path):
    drill, result = _booted_drill_with_restore_fault(tmp_path)
    try:
        standby = drill.standby
        node, image_id = standby.node, standby.image_id
        before = node.fingerprint()
        assert drill._cut_full(result)
        with pytest.raises(Exception) as excinfo:
            standby.resync(drill.last_image)
        assert excinfo.value.fault_site == "restore.image"
        # The tree it held is the tree it holds: alive, untouched, and
        # still named by the image it came from.
        assert standby.node is node and not node.torn_down
        assert standby.image_id == image_id
        assert before.diff(node.fingerprint()) == []
        assert standby.stale
        # apply() never raises (a stale standby refuses), and the last
        # consistent checkpoint is still promotable.
        delta = capture_delta(drill.primary, drill.baseline, drill.config)
        assert standby.apply(delta.encode()) is False
        assert standby.promote() is node
    finally:
        drill._teardown()


def test_cadence_tick_survives_a_failed_resync(tmp_path):
    drill, result = _booted_drill_with_restore_fault(tmp_path)
    try:
        standby = drill.standby
        drill.baseline.mapping_seqs[(9999, 0x7F000000)] = 0  # structural drift
        drill._cadence_tick(result)  # must not raise
        assert result.fired_sites == ["restore.image"]
        assert result.checkpoint_failures == 1
        assert drill.standby is standby and standby.stale
        assert not standby.node.torn_down
        drill._cadence_tick(result)  # the stale standby refuses the delta
        assert standby.deltas_rejected == 1
        assert standby.promote() is standby.node
    finally:
        drill._teardown()
