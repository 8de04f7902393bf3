"""The update contract, judged once: ``ScenarioOutcome.violations``.

An update never escapes as an exception, ends committed XOR rolled back,
and a rollback leaves the old version verified (or loudly flagged) with a
black box, while the surviving version keeps its port and answers a probe
(§3, §6.3).  One test per violation on hand-built outcomes; then that the
fault matrix and the fuzzer both ask this judge, and that ``arm`` builds
the plans both used to build by hand.
"""

from __future__ import annotations

import pytest

from repro.bench import faultmatrix, fuzz
from repro.mcr.controller import QUIESCENCE_MAX_RETRIES, UpdateResult
from repro.mcr.faults import FaultPlan
from repro.replay.scenario import (
    ScenarioOutcome,
    UpdateOutcome,
    arm,
    default_spec,
)


def _outcome(committed=True, rolled_back=False, **fields):
    """A run that held the contract, with ``fields`` set on top."""
    result = UpdateResult()
    result.committed = committed
    result.rolled_back = rolled_back
    if rolled_back:
        result.rollback_verified = True
        result.blackbox = {"reason": "update.rolled_back"}
    outcome = ScenarioOutcome(default_spec("simple"))
    outcome.result = result
    outcome.listener_present = True
    outcome.probe_completed = 3
    for key, value in fields.items():
        target = result if hasattr(result, key) else outcome
        setattr(target, key, value)
    return outcome


def test_a_commit_and_a_verified_rollback_break_nothing():
    assert _outcome().violations() == []
    assert _outcome(committed=False, rolled_back=True).violations() == []
    # A failed rollback is allowed unverified: it is flagged loudly.
    flagged = _outcome(
        committed=False, rolled_back=True, rollback_verified=None, rollback_failed=True
    )
    assert flagged.violations() == []


def test_the_update_raised():
    outcome = _outcome(result=None, raised="RuntimeError('boom')")
    assert outcome.violations() == ["live_update raised RuntimeError('boom')"]


@pytest.mark.parametrize("committed", [True, False])
def test_not_exactly_one_of_committed_and_rolled_back(committed):
    outcome = _outcome(committed=committed, rolled_back=committed)
    assert outcome.violations() == [
        f"outcome not exclusive: committed={committed} rolled_back={committed}"
    ]


def test_no_result_and_no_exception_is_not_an_outcome():
    assert _outcome(result=None).violations() == [
        "outcome not exclusive: committed=False rolled_back=False"
    ]


@pytest.mark.parametrize("verified", [None, False])
def test_a_rollback_neither_verified_nor_flagged(verified):
    outcome = _outcome(committed=False, rolled_back=True, rollback_verified=verified)
    assert outcome.violations() == [f"rollback not fingerprint-verified: {verified}"]


def test_a_rollback_without_a_black_box():
    outcome = _outcome(committed=False, rolled_back=True, blackbox=None)
    assert outcome.violations() == ["rolled back without dumping a black box"]


def test_no_listener_owns_the_port():
    assert _outcome(listener_present=False).violations() == [
        "no listener on the server port after the update"
    ]


def test_the_probe_raised():
    outcome = _outcome(probe_error="OSError('reset')")
    assert outcome.violations() == ["probe raised OSError('reset')"]


@pytest.mark.parametrize("completed, errors", [(0, 0), (3, 1)])
def test_the_probe_failed(completed, errors):
    outcome = _outcome(probe_completed=completed, probe_errors=errors)
    assert outcome.violations() == [
        f"probe failed: {completed} completed, {errors} errors"
    ]


def test_the_outcome_record_reads_the_result_once():
    assert UpdateOutcome.of(None) == UpdateOutcome()
    result = UpdateResult()
    result.rolled_back = True
    result.failure_site = "transfer.memory"
    result.retries = 1
    result.rollback_verified = True
    assert UpdateOutcome.of(result)._asdict() == {
        "committed": False,
        "rolled_back": True,
        "failure_site": "transfer.memory",
        "retries": 1,
        "rollback_verified": True,
        "rollback_failed": False,
    }


def test_the_fault_matrix_and_the_fuzzer_ask_the_one_judge(monkeypatch):
    """Make the judge report a violation on a clean update: both fail."""
    monkeypatch.setattr(
        ScenarioOutcome, "violations", lambda self: ["synthetic violation"]
    )
    cell = faultmatrix.run_cell("simple", "transfer.memory")
    assert cell["rolled_back"] and cell["rollback_verified"] is True
    assert cell["survived"] is False
    verdict = fuzz.check_spec(default_spec("simple"))
    assert verdict["committed"] is True
    assert verdict["ok"] is False
    assert "synthetic violation" in verdict["problems"]


def test_arm_builds_the_plans_both_copies_built():
    # The fault matrix's double-fault cell and the fuzzer's rollback draw.
    double = FaultPlan().at("transfer.memory").at("rollback")
    fuzz_draw = FaultPlan.from_spec(
        [
            {"site": "transfer.memory", "nth": 1, "times": 1},
            {"site": "rollback", "nth": 1, "times": 1},
        ]
    )
    assert arm("rollback").to_spec() == double.to_spec() == fuzz_draw.to_spec()
    # A quiescence fault outlasts the controller's bounded retries.
    assert arm("quiescence.wait").to_spec() == [
        {"site": "quiescence.wait", "nth": 1, "times": QUIESCENCE_MAX_RETRIES + 1}
    ]
    # "a+b" arms both, each plainly.
    assert (
        arm("checkpoint.write+standby.promote").to_spec()
        == FaultPlan().at("checkpoint.write").at("standby.promote").to_spec()
    )
    assert arm("transfer.memory").to_spec() == FaultPlan().at("transfer.memory").to_spec()
    assert not arm(None)
