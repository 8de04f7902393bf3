"""Unit tests for controller internals: RestoreContext pairing helpers,
offline analysis outputs, and the realloc plan application."""

import pytest

from repro.kernel import Kernel, sim_function
from repro.mcr.controller import LiveUpdateController, RestoreContext
from repro.mcr.libmcr import MCRSession
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import load_program
from repro.servers import vsftpd
from repro.workloads.client import connect_with_retry, recv_line


def _boot_vsftpd_with_sessions(kernel, session_count=2):
    vsftpd.setup_world(kernel)
    program = vsftpd.make_program(1)
    session = MCRSession(kernel, program, BuildConfig.full())
    root = load_program(kernel, program, build=BuildConfig.full(), session=session)
    done = []

    @sim_function
    def login(sys, index):
        fd = yield from connect_with_retry(sys, 21)
        yield from recv_line(sys, fd)
        yield from sys.send(fd, f"USER u{index}\n".encode())
        yield from recv_line(sys, fd)
        yield from sys.send(fd, b"PASS pw\n")
        yield from recv_line(sys, fd)
        done.append(index)
        while True:  # hold the session open
            yield from sys.nanosleep(50_000_000)

    for index in range(session_count):
        kernel.spawn_process(login, args=(index,))
    kernel.run(max_steps=600_000, until=lambda: len(done) == session_count)
    return program, session, root


class TestRestoreContextPairing:
    def _context_after_control_migration(self, kernel, session, root):
        """Drive a controller up to (but not past) the handler stage."""
        controller = LiveUpdateController(kernel, session, vsftpd.make_program(2))
        session.quiescence.request()
        session.quiescence.wait(root)
        plan = controller._offline_analysis()
        new_root = controller._restart(plan)
        controller._run_control_migration(new_root)
        return controller, RestoreContext(controller, new_root), new_root

    def test_missing_counterparts_are_the_sessions(self, kernel):
        _program, session, root = _boot_vsftpd_with_sessions(kernel, 2)
        controller, context, new_root = self._context_after_control_migration(
            kernel, session, root
        )
        missing = context.missing_counterparts()
        assert len(missing) == 2
        assert all(p.name == "vsftpd-session" for p in missing)
        controller._rollback(new_root)

    def test_paired_new_process_by_pid(self, kernel):
        _program, session, root = _boot_vsftpd_with_sessions(kernel, 1)
        controller, context, new_root = self._context_after_control_migration(
            kernel, session, root
        )
        paired = context.paired_new_process(root)
        assert paired is not None
        assert paired.pid == root.pid
        assert paired is not root
        controller._rollback(new_root)

    def test_respawn_creates_counterpart_with_same_identity(self, kernel):
        _program, session, root = _boot_vsftpd_with_sessions(kernel, 1)
        controller, context, new_root = self._context_after_control_migration(
            kernel, session, root
        )
        old_session_proc = next(
            p for p in root.tree() if p.name == "vsftpd-session"
        )
        restore = _program.metadata["session_restore"]
        new_proc = context.respawn(old_session_proc, restore, args=(0,))
        assert new_proc.pid == old_session_proc.pid
        assert new_proc.creation_stack_id == old_session_proc.creation_stack_id
        assert new_proc.parent in new_root.tree()
        controller._rollback(new_root)


class TestOfflineAnalysis:
    def test_plan_pins_libs_and_reserves_heap(self, kernel):
        from repro.servers import opensshd

        opensshd.setup_world(kernel)
        program = opensshd.make_program(1)
        session = MCRSession(kernel, program, BuildConfig.full())
        root = load_program(kernel, program, build=BuildConfig.full(), session=session)
        kernel.run(until=lambda: session.startup_complete, max_steps=300_000)
        controller = LiveUpdateController(kernel, session, opensshd.make_program(2))
        session.quiescence.request()
        session.quiescence.wait(root)
        plan = controller._offline_analysis()
        assert "libcrypto" in plan.lib_bases
        # Function symbols are never pinned even if likely-targeted.
        new_program = controller.new_program
        for pinned in new_program.pinned_symbols:
            symbol = root.symbols.get(pinned)
            assert symbol is None or symbol.section != "text"
        session.quiescence.release()
