"""The shared drill engine: the never-raise backstop, teardown, the XOR contract.

What ``FailoverDrill`` and ``MigrationDrill`` inherit from
``repro.fleet.drill`` rather than implement: ``run`` never raises, every
node a drill booted is torn down however the drill ended, and
``DrillResult.converged`` is the one statement of "exactly one end
state, and it served afterwards".
"""

from __future__ import annotations

import pytest

from repro.fleet.drill import DrillResult
from repro.fleet.failover import FailoverDrill, FailoverResult
from repro.fleet.migration import MigrationDrill, MigrationResult
from repro.fleet.node import Node


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
    assert not result.converged
    assert len(booted) >= 2
    assert all(node.torn_down for node in booted)


def _result(cls, **fields):
    result = cls("simple")
    result.served_after = True
    for name, value in fields.items():
        setattr(result, name, value)
    return result


@pytest.mark.parametrize(
    "result, converged",
    [
        (_result(FailoverResult, promoted=True), True),
        (_result(FailoverResult, cold_restored=True), True),
        (_result(FailoverResult, primary_survived=True), True),
        (_result(MigrationResult, migrated=True), True),
        (_result(MigrationResult, primary_survived=True), True),
        # Neither end state, both end states, not serving, or an error.
        (_result(FailoverResult), False),
        (_result(MigrationResult, migrated=True, primary_survived=True), False),
        (_result(FailoverResult, promoted=True, served_after=False), False),
        (_result(MigrationResult, migrated=True, error="drill error"), False),
    ],
)
def test_converged_is_the_xor_contract(result, converged):
    assert isinstance(result, DrillResult)
    assert result.converged is converged


def test_results_share_the_engine_fields_and_add_their_own():
    shared = set(DrillResult("simple").to_dict())
    failover = set(FailoverResult("simple").to_dict())
    migration = set(MigrationResult("simple").to_dict())
    assert len(shared) == 12 and shared <= failover and shared <= migration
    assert {"rto_ms", "promoted", "cold_restored", "stale_lag"} <= failover - shared
    assert {"brownout_ms", "migrated", "aborted", "reseeds"} <= migration - shared
