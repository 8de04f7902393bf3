"""The shared drill engine: the never-raise backstop, teardown, the one judge.

What ``FailoverDrill`` and ``MigrationDrill`` inherit from
``repro.fleet.drill`` rather than implement: ``run`` never raises, every
node a drill booted is torn down however the drill ended, and
``DrillResult.violations`` is the one statement of the drill contract:
no error, serving afterwards, exactly one end state, a fault fired
exactly when one was armed, and no request lost.  And no bench runs the
same drill twice: a drill's outcome is fixed by its inputs.
"""

from __future__ import annotations

import pytest

from repro.bench.failover import run_failover
from repro.bench.migrate import run_migrate
from repro.fleet.drill import Drill, DrillResult
from repro.fleet.failover import FailoverDrill, FailoverResult
from repro.fleet.migration import MigrationDrill, MigrationResult
from repro.mcr.controller import arm
from repro.servers.node import Node


@pytest.mark.parametrize("drill_class", [FailoverDrill, MigrationDrill])
def test_a_phase_raising_after_boot_still_tears_every_node_down(
    drill_class, monkeypatch
):
    booted = []
    original_init = Node.__init__
    original_advance = Node.advance_to

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        booted.append(self)

    def failing_advance(self, deadline_ns, *args, **kwargs):
        if len(booted) >= 2:  # primary and its warm peer both exist
            raise RuntimeError("host fell over mid-window")
        return original_advance(self, deadline_ns, *args, **kwargs)

    monkeypatch.setattr(Node, "__init__", tracking_init)
    monkeypatch.setattr(Node, "advance_to", failing_advance)
    result = drill_class("simple").run()  # must not propagate
    assert result.error is not None and "host fell over" in result.error
    assert result.violations()
    assert len(booted) >= 2
    assert all(node.torn_down for node in booted)


@pytest.mark.parametrize("drill_class", [FailoverDrill, MigrationDrill])
def test_a_cell_whose_drill_cannot_be_built_reports_a_raised_row(
    drill_class, monkeypatch
):
    finished = drill_class.cell("simple", None)

    def refusing(self, *args, **kwargs):
        raise RuntimeError("no host to boot on")

    monkeypatch.setattr(drill_class, "__init__", refusing)
    cell = drill_class.cell("simple", None)  # must not propagate
    assert set(cell) == set(finished)
    assert cell["raised"] and cell["converged"] is False
    assert "no host to boot on" in cell["error"]


def _result(cls, **fields):
    result = cls("simple")
    result.served_after = True
    for name, value in fields.items():
        setattr(result, name, value)
    return result


def _fired(site):
    """A plan armed at ``site`` that fired there."""
    plan = arm(site)
    with pytest.raises(Exception):
        plan.fire(site)
    return plan


@pytest.mark.parametrize(
    "result, violations",
    [
        (_result(FailoverResult, promoted=True), []),
        (_result(FailoverResult, cold_restored=True), []),
        (_result(FailoverResult, primary_survived=True), []),
        (_result(MigrationResult, migrated=True), []),
        (_result(MigrationResult, primary_survived=True), []),
        # Armed and fired, as a fault cell ends.
        (_result(FailoverResult, promoted=True, faults=_fired("standby.promote")), []),
        (_result(MigrationResult, primary_survived=True,
                 faults=_fired("migrate.cutover")), []),
        # Neither end state, both end states, not serving, or an error.
        (_result(FailoverResult), ["no end state"]),
        (_result(MigrationResult, migrated=True, primary_survived=True),
         ["two end states"]),
        (_result(FailoverResult, promoted=True, served_after=False),
         ["not serving afterwards"]),
        (_result(MigrationResult, migrated=True, error="drill error"), ["drill error"]),
        # Fired without being armed, armed and never fired, a lost request.
        (_result(FailoverResult, primary_survived=True,
                 fired_sites=["checkpoint.capture"]), ["fired without being armed"]),
        (_result(MigrationResult, migrated=True, faults=arm("migrate.precopy")),
         ["armed and never fired"]),
        (_result(FailoverResult, promoted=True, requests_lost=1), ["requests lost: 1"]),
        (_result(MigrationResult, migrated=True, requests_lost=2), ["requests lost: 2"]),
    ],
)
def test_violations_is_the_drill_contract(result, violations):
    assert isinstance(result, DrillResult)
    assert result.violations() == violations
    assert result.row()["converged"] is (not violations)


def test_no_bench_runs_the_same_drill_twice(monkeypatch):
    runs = []
    run = Drill.run

    def recording(drill):
        faults = drill.config.faults
        runs.append((
            type(drill).__name__,
            drill.server,
            drill.config.checkpoint_interval_ns,
            getattr(drill, "crash", None),
            getattr(drill, "crash_window", None),
            getattr(drill, "convergence_bytes", None),
            tuple(faults.armed_sites()) if faults else (),
        ))
        return run(drill)

    monkeypatch.setattr(Drill, "run", recording)
    run_failover(smoke=True)
    run_migrate(smoke=True)
    assert runs and len(set(runs)) == len(runs), sorted(runs)


def test_results_share_the_engine_fields_and_add_their_own():
    shared = set(DrillResult("simple").to_dict())
    failover = set(FailoverResult("simple").to_dict())
    migration = set(MigrationResult("simple").to_dict())
    assert len(shared) == 12 and shared <= failover and shared <= migration
    assert {"rto_ms", "promoted", "cold_restored", "stale_lag"} <= failover - shared
    assert {"brownout_ms", "migrated", "aborted", "reseeds"} <= migration - shared
