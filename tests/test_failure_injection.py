"""Failure injection: updates must be atomic under arbitrary failures.

Paper §3: "Failure to complete the restart phase due to arbitrary run-time
errors simply causes the new version to terminate and the old version to
resume execution from the checkpoint, yielding an atomic and reversible
update strategy that hides any live update and rollback event to the
clients."  These tests inject failures at each stage and assert exactly
that — plus that rollback leaks nothing (processes, ports, listener
refcounts).
"""

import pytest

from repro.errors import ConflictError, SimError, StateTransferError
from repro.kernel import Kernel, sim_function
from repro.mcr.config import MCRConfig
from repro.mcr.controller import LiveUpdateController
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan
from repro.mcr import controller as controller_module
from repro.mcr.tracing.transfer import StateTransfer
from repro.servers import simple
from repro.servers.catalog import boot
from repro.servers.common import connect_with_retry, recv_line


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


def _world_snapshot(kernel, root):
    return {
        "live_processes": len(kernel.live_processes()),
        "ports": set(kernel.net._listeners),
        "root_fds": root.fdtable.fds(),
    }


class _FailingTransfer(StateTransfer):
    """StateTransfer that blows up midway through the content pass."""

    def _transfer_object(self, record, new_base, old_proc, new_proc, translate, stats):
        if stats.objects_transferred >= 1:
            raise StateTransferError("injected: shared-memory channel died")
        return super()._transfer_object(
            record, new_base, old_proc, new_proc, translate, stats
        )


class TestInjectedFailures:
    def test_failure_during_state_transfer_rolls_back(self, kernel, monkeypatch):
        _program, session, root = _boot(kernel)
        _serve_one(kernel, "push 6", "ok 1")
        before = _world_snapshot(kernel, root)
        monkeypatch.setattr(controller_module, "StateTransfer", _FailingTransfer)
        controller = LiveUpdateController(kernel, session, simple.make_program(2))
        result = controller.run_update()
        assert result.rolled_back
        assert isinstance(result.error, StateTransferError)
        # The old version resumes and serves with its state intact.
        assert _serve_one(kernel, "sum", "sum 6") == "sum 6"
        after = _world_snapshot(kernel, root)
        assert after["live_processes"] == before["live_processes"]
        assert after["ports"] == before["ports"]
        assert after["root_fds"] == before["root_fds"]

    def test_failure_during_restart_rolls_back(self, kernel, monkeypatch):
        _program, session, root = _boot(kernel)
        _serve_one(kernel, "push 3", "ok 1")

        def exploding_restart(self, plan):
            raise SimError("injected: restart environment broken")

        monkeypatch.setattr(LiveUpdateController, "_restart", exploding_restart)
        result = LiveUpdateController(kernel, session, simple.make_program(2)).run_update()
        assert result.rolled_back
        assert _serve_one(kernel, "sum", "sum 3") == "sum 3"

    def test_failure_during_offline_analysis_rolls_back(self, kernel, monkeypatch):
        _program, session, root = _boot(kernel)
        _serve_one(kernel, "push 9", "ok 1")

        def exploding_analysis(self):
            raise SimError("injected: analysis crashed")

        monkeypatch.setattr(
            LiveUpdateController, "_offline_analysis", exploding_analysis
        )
        result = LiveUpdateController(kernel, session, simple.make_program(2)).run_update()
        assert result.rolled_back
        assert _serve_one(kernel, "sum", "sum 9") == "sum 9"

    def test_repeated_failed_updates_do_not_degrade_v1(self, kernel, monkeypatch):
        """Three consecutive rollbacks; v1 state and resources intact."""
        _program, session, root = _boot(kernel)
        _serve_one(kernel, "push 5", "ok 1")
        before = _world_snapshot(kernel, root)
        kernel.fs.create("/etc/simple.conf", b"9999")  # forces replay conflict
        ctl = McrCtl(kernel, session)
        for _ in range(3):
            result = ctl.live_update(simple.make_program(2))
            assert result.rolled_back
        kernel.fs.create("/etc/simple.conf", b"8080")
        assert _serve_one(kernel, "sum", "sum 5") == "sum 5"
        after = _world_snapshot(kernel, root)
        assert after == before

    def test_successful_update_after_failed_attempt(self, kernel):
        """Rollback must leave the startup log replayable for retries."""
        _program, session, root = _boot(kernel)
        _serve_one(kernel, "push 2", "ok 1")
        ctl = McrCtl(kernel, session)
        kernel.fs.create("/etc/simple.conf", b"9999")
        assert ctl.live_update(simple.make_program(2)).rolled_back
        kernel.fs.create("/etc/simple.conf", b"8080")
        result = ctl.live_update(simple.make_program(2))
        assert result.committed, result.error
        assert _serve_one(kernel, "sum", "sum 2") == "sum 2"

    def test_rollback_terminates_new_tree_completely(self, kernel, monkeypatch):
        _program, session, root = _boot(kernel)
        _serve_one(kernel, "push 1", "ok 1")  # ensure there is dirty state
        monkeypatch.setattr(controller_module, "StateTransfer", _FailingTransfer)
        controller = LiveUpdateController(kernel, session, simple.make_program(2))
        result = controller.run_update()
        assert result.rolled_back
        assert result.new_root is not None
        assert result.new_root.exited
        assert all(p.exited for p in result.new_root.tree()) or not result.new_root.tree()

    def test_failed_update_does_not_leak_new_listener_port(self, kernel):
        """A new version that binds an *extra* port during replay must give
        that port back when the update rolls back — rollback audits and
        closes every descriptor the aborted tree opened."""
        _program, session, root = _boot(kernel)
        _serve_one(kernel, "push 4", "ok 1")
        v2 = simple.make_program(2)
        inner_main = v2.main

        @sim_function
        def main_with_extra_listener(sys):
            fd = yield from sys.socket()
            yield from sys.bind(fd, 9999)
            yield from sys.listen(fd)
            yield from inner_main(sys)

        v2.main = main_with_extra_listener
        plan = FaultPlan().at("transfer.memory")
        result = McrCtl(kernel, session).live_update(
            v2, config=MCRConfig(faults=plan)
        )
        assert result.rolled_back
        # The aborted version's port is released, not leaked...
        assert 9999 not in kernel.net._listeners
        # ...while the old version's listener is untouched and serving.
        assert 8080 in kernel.net._listeners
        assert not kernel.net._listeners[8080].closed
        assert _serve_one(kernel, "sum", "sum 4") == "sum 4"

    def test_commit_terminates_old_tree_completely(self, kernel):
        _program, session, root = _boot(kernel)
        result = McrCtl(kernel, session).live_update(simple.make_program(2))
        assert result.committed
        assert root.exited
        # The port is still owned (by the new version's inherited listener).
        assert 8080 in kernel.net._listeners
        assert not kernel.net._listeners[8080].closed


class TestInFlightRequests:
    def test_request_sent_during_quiescence_served_by_new_version(self, kernel):
        """A request buffered while the world is frozen is answered by v2."""
        _program, session, root = _boot(kernel)
        _serve_one(kernel, "push 8", "ok 1")
        # Freeze v1 at the barrier, then let a client fire a request into
        # the (shared, inherited) connection backlog.
        session.quiescence.request()
        session.quiescence.wait(root)
        replies = []

        @sim_function
        def mid_update_client(sys):
            fd = yield from connect_with_retry(sys, 8080)
            yield from sys.send(fd, b"sum\n")
            line = yield from recv_line(sys, fd)
            replies.append(line.decode().strip())
            yield from sys.close(fd)

        kernel.spawn_process(mid_update_client)
        kernel.run(max_steps=30_000)
        assert not replies  # nobody is serving yet
        session.quiescence.release()  # hand the checkpoint back...
        kernel.run(max_steps=5_000)
        # ...and immediately update for real.
        result = McrCtl(kernel, session).live_update(simple.make_program(2))
        assert result.committed, result.error
        kernel.run(max_steps=300_000, until=lambda: bool(replies))
        assert replies == ["sum 8"]
