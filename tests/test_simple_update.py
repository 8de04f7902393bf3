"""End-to-end live update of the Listing-1 example server.

This is the paper's §3 walkthrough as an executable test: record startup,
quiesce, restart under replay, transfer dirty state (including the Figure-2
type transformation and the hidden-pointer buffer), commit — plus the
rollback path and connection survival across the update.
"""

import pytest

from repro.errors import ConflictError
from repro.kernel import Kernel, sim_function
from repro.mcr.ctl import McrCtl
from repro.mcr.libmcr import MCRSession
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import load_program
from repro.servers import simple
from repro.servers.common import PORT_SIMPLE
from repro.types.descriptors import PointerType
from repro.workloads.client import connect_with_retry, recv_line


@sim_function
def _request_client(sys, commands, replies, hold_open=False):
    fd = yield from connect_with_retry(sys, PORT_SIMPLE)
    for command in commands:
        yield from sys.send(fd, (command + "\n").encode())
        line = yield from recv_line(sys, fd)
        replies.append(line.decode().strip())
    if hold_open:
        # Park on the open connection; woken by later sends or close.
        while True:
            data = yield from sys.recv(fd)
            if not data:
                break
    yield from sys.close(fd)


@sim_function
def _late_sender(sys, fd_holder, commands, replies):
    """Reuses an already-open connection (fd captured by another thread)."""
    fd = fd_holder["fd"]
    for command in commands:
        yield from sys.send(fd, (command + "\n").encode())
        line = yield from recv_line(sys, fd)
        replies.append(line.decode().strip())


def _boot_v1(kernel):
    simple.setup_world(kernel)
    program = simple.make_program(1)
    session = MCRSession(kernel, program, BuildConfig.full())
    root = load_program(kernel, program, build=BuildConfig.full(), session=session)
    return program, session, root


class TestLiveUpdate:
    def test_update_commits_and_transfers_list(self, kernel):
        _program, session, _root = _boot_v1(kernel)
        replies = []
        kernel.spawn_process(
            _request_client, args=(["push 10", "push 20", "version"], replies)
        )
        kernel.run(max_steps=100_000)
        assert replies == ["ok 1", "ok 2", "version 1"]
        assert session.startup_complete

        ctl = McrCtl(kernel, session)
        result = ctl.live_update(simple.make_program(2))
        assert result.committed, f"update failed: {result.error}"

        after = []
        kernel.spawn_process(
            _request_client, args=(["sum", "version", "push 5", "sum"], after)
        )
        kernel.run(max_steps=200_000)
        # The v1 list (10+20) survived the update and the v2 code extends it.
        assert after == ["sum 30", "version 2", "ok 3", "sum 35"]

    def test_open_connection_survives_update(self, kernel):
        _program, session, _root = _boot_v1(kernel)
        fd_holder = {}
        pre, post = [], []

        @sim_function
        def persistent_client(sys):
            fd = yield from connect_with_retry(sys, PORT_SIMPLE)
            fd_holder["fd"] = fd
            yield from sys.send(fd, b"push 7\n")
            line = yield from recv_line(sys, fd)
            pre.append(line.decode().strip())
            while not fd_holder.get("done"):  # keep the process (and fd) alive
                yield from sys.nanosleep(10_000_000)

        client_proc = kernel.spawn_process(persistent_client)
        kernel.run(max_steps=100_000, until=lambda: bool(pre))
        assert pre == ["ok 1"]

        ctl = McrCtl(kernel, session)
        result = ctl.live_update(simple.make_program(2))
        assert result.committed, f"update failed: {result.error}"

        # Same connection, same process: the fd still works against v2.
        kernel._start_thread(
            client_proc, _late_sender, (fd_holder, ["sum", "version"], post), "late"
        )
        kernel.run(max_steps=200_000, until=lambda: len(post) == 2)
        fd_holder["done"] = True
        assert post == ["sum 7", "version 2"]

    def test_update_time_is_subsecond(self, kernel):
        _program, session, _root = _boot_v1(kernel)
        kernel.run(max_steps=50_000)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(simple.make_program(2))
        assert result.committed
        assert result.total_ms() < 1000.0  # paper: < 1 s
        assert result.quiescence_ns <= 100_000_000  # paper: < 100 ms

    def test_chained_updates(self, kernel):
        """v1 -> v2 -> v2' (ctl re-binds to the committed session)."""
        _program, session, _root = _boot_v1(kernel)
        replies = []
        kernel.spawn_process(_request_client, args=(["push 3"], replies))
        kernel.run(max_steps=100_000)
        ctl = McrCtl(kernel, session)
        assert ctl.live_update(simple.make_program(2)).committed
        assert ctl.live_update(simple.make_program(2)).committed
        after = []
        kernel.spawn_process(_request_client, args=(["sum"], after))
        kernel.run(max_steps=200_000)
        assert after == ["sum 3"]

    def test_rollback_on_conflict_resumes_v1(self, kernel):
        _program, session, _root = _boot_v1(kernel)
        replies = []
        kernel.spawn_process(_request_client, args=(["push 4"], replies))
        kernel.run(max_steps=100_000)

        # A hostile v2 whose startup binds a different port: the recorded
        # bind can never match -> the new socket() runs live and the live
        # bind clashes with the (still running) v1 listener -> rollback.
        bad_v2 = simple.make_program(2)
        kernel.fs.create("/etc/simple.conf", b"9999")
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(bad_v2)
        assert result.rolled_back
        assert not result.committed
        # v1 must keep serving as if nothing happened.
        kernel.fs.create("/etc/simple.conf", str(PORT_SIMPLE).encode())
        after = []
        kernel.spawn_process(_request_client, args=(["sum", "version"], after))
        kernel.run(max_steps=200_000)
        assert after == ["sum 4", "version 1"]

    def test_status_reports_phase(self, kernel):
        _program, session, _root = _boot_v1(kernel)
        kernel.run(max_steps=50_000)
        status = McrCtl(kernel, session).status()
        assert status["phase"] == "normal"
        assert status["startup_complete"] is True
        assert status["startup_log_records"] > 0
        assert status["metadata_bytes"] > 0

    def test_a_stack_variable_is_a_trace_root_not_a_transfer_target(self, kernel):
        """What state transfer does with a named stack variable of a
        quiescent thread that points into the heap (paper §6).

        MCR tracks the stack variables of the functions active at
        quiescent points so that tracing can start from them: what such a
        variable points to is reached, traced and transferred.  Objects
        are paired by symbol name, allocation-site call stack or identity;
        the new version's thread rebuilds its own frames by re-running
        startup to the same quiescent point (control migration), so the
        variable's slot is nobody's counterpart and is not written.
        """
        _program, session, root = _boot_v1(kernel)
        kernel.run(max_steps=50_000)
        (thread,) = root.live_threads()
        assert thread.top_function() == "server_get_event"  # parked at its QP
        l_t = session.program.types["l_t"]
        crt = root.crt
        node = crt.malloc_typed(thread, l_t)
        crt.set(node, l_t, "value", 4242)
        # Named like a global on purpose: a stack variable is no global.
        slot = crt.stack_alloc(thread, "list_head", PointerType(l_t, name="l_t*"))
        root.space.write_word(slot, node)

        result = McrCtl(kernel, session).live_update(simple.make_program(2))
        assert result.committed, result.error
        trace = result.transfer_report.trace_results[root.pid]
        assert trace.objects[slot].is_root and trace.objects[slot].name == "list_head"
        assert node in trace.objects  # reached from the stack variable only
        new_root = result.new_root
        l_t2 = new_root.program.types["l_t"]
        copies = [
            tag.address for tag in new_root.tags.tags()
            if tag.type.name == "l_t" and new_root.crt.get(tag.address, l_t2, "value") == 4242
        ]
        assert len(copies) == 1  # the target moved, transformed to v2's l_t
        assert new_root.crt.get(copies[0], l_t2, "new") == 0
        assert not list(new_root.space.mappings(kind="stack"))  # the slot did not,
        assert new_root.crt.gget("list_head") == 0  # nor into the global it is named like
