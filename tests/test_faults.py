"""The fault plane and the transactional update it exists to prove.

Paper §3: a failed live update "simply causes the new version to
terminate and the old version to resume execution from the checkpoint".
These tests drive the ``repro.mcr.faults`` injection plane through the
real controller and assert the transaction's contract at every site:

* ``run_update`` never raises — every outcome is committed xor
  rolled back (property-tested over all sites with hypothesis);
* after any rollback the old tree's fingerprint matches its checkpoint;
* quiescence timeouts are retried with backoff before giving up;
* a fault *after* the point of no return rolls forward to a consistent
  committed tree;
* a fault *inside rollback* (double fault) still leaves the old version
  serving, loudly flagged via ``rollback_failed``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConflictError,
    MemoryFault,
    QuiescenceTimeout,
    SimError,
)
from repro.kernel import Kernel, sim_function
from repro.mcr.config import MCRConfig
from repro.mcr.controller import QUIESCENCE_MAX_RETRIES
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import (
    DEFAULT_ERRORS,
    FaultArm,
    FaultPlan,
    SITES,
    TreeFingerprint,
)
from repro.servers import simple
from repro.servers.catalog import boot
from repro.workloads.client import connect_with_retry, recv_line


def _boot(kernel):
    world = boot("simple", kernel=kernel)
    return world.program, world.session, world.root


def _serve_one(kernel, command, expected_prefix):
    replies = []

    @sim_function
    def client(sys):
        fd = yield from connect_with_retry(sys, 8080)
        yield from sys.send(fd, (command + "\n").encode())
        line = yield from recv_line(sys, fd)
        replies.append(line.decode().strip())
        yield from sys.close(fd)

    kernel.spawn_process(client)
    kernel.run(max_steps=300_000, until=lambda: bool(replies))
    assert replies and replies[0].startswith(expected_prefix), replies
    return replies[0]


def _update(kernel, session, plan=None, **config_kwargs):
    config = MCRConfig(faults=plan, **config_kwargs)
    return McrCtl(kernel, session).live_update(simple.make_program(2), config=config)


class TestFaultArm:
    def test_deterministic_window(self):
        arm = FaultArm("transfer.memory", nth=2, times=2)
        assert [arm.should_fire() for _ in range(5)] == [
            False, True, True, False, False,
        ]

    def test_probabilistic_stream_is_seeded(self):
        a = FaultArm("transfer.memory", probability=0.5, seed=7)
        b = FaultArm("transfer.memory", probability=0.5, seed=7)
        assert [a.should_fire() for _ in range(32)] == [
            b.should_fire() for _ in range(32)
        ]

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultArm("not.a.site")

    def test_every_site_has_a_default_error(self):
        assert set(DEFAULT_ERRORS) == set(SITES)
        for site, factory in DEFAULT_ERRORS.items():
            assert isinstance(factory(), BaseException), site


class TestFaultPlan:
    def test_empty_plan_is_falsy_and_inert(self):
        plan = FaultPlan()
        assert not plan
        plan.fire("transfer.memory")  # unarmed: must not raise
        assert plan.injected == []

    def test_fire_raises_tagged_error_and_records(self):
        plan = FaultPlan().at("transfer.memory")
        with pytest.raises(MemoryFault) as excinfo:
            plan.fire("transfer.memory")
        assert excinfo.value.fault_site == "transfer.memory"
        assert plan.injected == [("transfer.memory", 1)]
        assert plan.last_fired == "transfer.memory"
        # The window is spent: the next hit passes through.
        plan.fire("transfer.memory")
        assert plan.injected == [("transfer.memory", 1)]

    def test_custom_error_instance_raised_as_is(self):
        boom = SimError("custom")
        plan = FaultPlan().at("offline.analysis", error=boom)
        with pytest.raises(SimError) as excinfo:
            plan.fire("offline.analysis")
        assert excinfo.value is boom

class TestTreeFingerprint:
    def test_idle_tree_fingerprint_is_stable(self, kernel):
        _program, _session, root = _boot(kernel)
        first = TreeFingerprint.capture(kernel, root)
        second = TreeFingerprint.capture(kernel, root)
        assert first.matches(second)
        assert first.diff(second) == []

    def test_memory_mutation_changes_fingerprint(self, kernel):
        _program, _session, root = _boot(kernel)
        before = TreeFingerprint.capture(kernel, root)
        _serve_one(kernel, "push 11", "ok 1")  # allocates + writes heap
        after = TreeFingerprint.capture(kernel, root)
        problems = before.diff(after)
        assert problems, "a served mutation must change the fingerprint"
        assert any("memory changed" in p or "allocator" in p for p in problems)


class TestTransactionalUpdate:
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_every_site_survives(self, kernel, site):
        """Arm each site in turn: committed xor rolled back, never raises,
        and the surviving version answers traffic."""
        _program, session, _root = _boot(kernel)
        _serve_one(kernel, "push 4", "ok 1")
        plan = FaultPlan()
        if site == "quiescence.wait":
            plan.at(site, times=QUIESCENCE_MAX_RETRIES + 1)
        elif site == "rollback":
            plan.at("transfer.memory").at(site)
        else:
            plan.at(site)
        result = _update(kernel, session, plan)
        assert result.committed != result.rolled_back
        if result.rolled_back:
            assert result.failure_site is not None
            assert result.rollback_verified is True, result.failure_site
            assert _serve_one(kernel, "version", "version 1")
            assert _serve_one(kernel, "sum", "sum 4") == "sum 4"
        else:
            assert _serve_one(kernel, "version", "version 2")

    @settings(max_examples=20, deadline=None)
    @given(site=st.sampled_from(sorted(SITES)))
    def test_any_single_fault_never_raises(self, site):
        """Property: one fault at any site -> clean outcome, no exception."""
        kernel = Kernel()
        _program, session, _root = _boot(kernel)
        plan = FaultPlan()
        if site == "quiescence.wait":
            plan.at(site, times=QUIESCENCE_MAX_RETRIES + 1)
        else:
            plan.at(site)
        result = _update(kernel, session, plan)
        assert result.committed != result.rolled_back
        expect_commit = site in ("commit.critical", "rollback") or not plan.injected
        assert result.committed == expect_commit
        if result.rolled_back:
            assert result.rollback_verified is True

    def test_quiescence_retry_then_succeed(self, kernel):
        _program, session, _root = _boot(kernel)
        plan = FaultPlan().at("quiescence.wait", times=1)
        result = _update(kernel, session, plan)
        assert result.committed, result.error
        assert result.retries == 1

    def test_quiescence_retries_exhausted_rolls_back(self, kernel):
        _program, session, _root = _boot(kernel)
        retries = QUIESCENCE_MAX_RETRIES
        plan = FaultPlan().at("quiescence.wait", times=retries + 1)
        result = _update(kernel, session, plan)
        assert result.rolled_back
        assert result.retries == retries
        assert isinstance(result.error, QuiescenceTimeout)
        assert result.failure_site == "quiescence.wait"
        assert result.rollback_verified is True

    def test_post_point_of_no_return_fault_rolls_forward(self, kernel):
        """After the old tree is torn down, a commit fault must complete
        the commit (rolling back is no longer possible)."""
        _program, session, _root = _boot(kernel)
        _serve_one(kernel, "push 6", "ok 1")
        plan = FaultPlan().at("commit.critical")
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(
            simple.make_program(2), config=MCRConfig(faults=plan)
        )
        assert result.committed
        assert not result.rolled_back
        assert result.error is not None
        assert result.failure_site == "commit.critical"
        # The new version is consistent: phase normal, barrier released,
        # state carried over, and it serves.
        assert ctl.session is result.new_session
        assert ctl.session.phase == "normal"
        assert _serve_one(kernel, "version", "version 2")
        assert _serve_one(kernel, "sum", "sum 6") == "sum 6"

    def test_double_fault_keeps_old_version_serving(self, kernel):
        _program, session, _root = _boot(kernel)
        _serve_one(kernel, "push 9", "ok 1")
        plan = FaultPlan().at("transfer.memory").at("rollback")
        result = _update(kernel, session, plan)
        assert result.rolled_back
        assert result.rollback_failed  # degradation is loud, not silent
        assert result.rollback_verified is True
        assert _serve_one(kernel, "version", "version 1")
        assert _serve_one(kernel, "sum", "sum 9") == "sum 9"

    def test_conflict_details_reach_the_result(self, kernel):
        _program, session, _root = _boot(kernel)
        plan = FaultPlan().at("reinit.replay")
        result = _update(kernel, session, plan)
        assert result.rolled_back
        assert isinstance(result.error, ConflictError)
        assert result.error.origin == "reinit"
        assert result.error.subject == "injected-operation"

    def test_status_reports_last_update(self, kernel):
        _program, session, _root = _boot(kernel)
        ctl = McrCtl(kernel, session)
        plan = FaultPlan().at("transfer.memory")
        result = ctl.live_update(
            simple.make_program(2), config=MCRConfig(faults=plan)
        )
        assert result.rolled_back
        status = ctl.status()
        assert status["last_update"] == "rolled_back"
        assert status["last_update_failure_site"] == "transfer.memory"
        assert status["last_update_rollback_verified"] is True

    def test_empty_plan_update_commits_normally(self, kernel):
        _program, session, _root = _boot(kernel)
        result = _update(kernel, session, FaultPlan())
        assert result.committed
        assert result.failure_site is None
        assert result.retries == 0
