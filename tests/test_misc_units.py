"""Assorted unit coverage: clock, errors, sysapi helpers, ctl handle,
kernel edge semantics (epoll del, exec + fds, OOM)."""

import pytest

from repro.clock import VirtualClock
from repro.errors import (
    AllocatorError,
    BadFileDescriptor,
    ConflictError,
    MemoryFault,
)
from repro.kernel import Kernel, sim_function
from repro.mcr.ctl import McrCtl
from repro.mem.address_space import AddressSpace
from repro.mem.ptmalloc import PtMallocHeap
from repro.runtime.instrument import BuildConfig
from repro.runtime.libmcr import MCRSession
from repro.runtime.program import load_program
from repro.servers import simple


class TestClock:
    def test_advance_monotonic(self):
        clock = VirtualClock()
        clock.advance(10)
        clock.advance(5)
        assert clock.now_ns == 15

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)


class TestErrors:
    def test_memory_fault_message(self):
        fault = MemoryFault(0xDEAD, "write to unmapped memory")
        assert "0xdead" in str(fault)
        assert fault.address == 0xDEAD

    def test_conflict_error_fields(self):
        conflict = ConflictError("reinit", "bind@init", "argument mismatch")
        assert conflict.origin == "reinit"
        assert "bind@init" in str(conflict) and "argument mismatch" in str(conflict)

    def test_bad_fd_carries_number(self):
        assert BadFileDescriptor(42).fd == 42


class TestCtlHandle:
    def test_history_and_rebinding(self, kernel):
        simple.setup_world(kernel)
        program = simple.make_program(1)
        session = MCRSession(kernel, program, BuildConfig.full())
        load_program(kernel, program, build=BuildConfig.full(), session=session)
        kernel.run(until=lambda: session.startup_complete, max_steps=100_000)
        ctl = McrCtl(kernel, session)
        first = ctl.live_update(simple.make_program(2))
        assert first.committed
        assert ctl.session is first.new_session  # re-bound
        kernel.fs.create("/etc/simple.conf", b"1234")  # force a failure
        second = ctl.live_update(simple.make_program(2))
        assert second.rolled_back
        assert ctl.session is first.new_session  # NOT re-bound on failure
        assert len(ctl.history) == 2
        assert ctl.status()["version"] == "2"


class TestKernelEdges:
    def test_epoll_del_stops_reporting(self, kernel):
        seen = []

        @sim_function
        def prog(sys):
            a, b = yield from sys.socketpair()
            ep = yield from sys.epoll_create()
            yield from sys.epoll_ctl(ep, "add", a)
            yield from sys.sendmsg(b, b"x")
            seen.append((yield from sys.epoll_wait(ep)))
            yield from sys.epoll_ctl(ep, "del", a)
            seen.append((yield from sys.epoll_wait(ep, timeout_ns=1_000_000)))

        kernel.spawn_process(prog)
        kernel.run(max_steps=1_000)
        from repro.kernel.syscalls import TIMEOUT

        assert seen[0] and seen[1] is TIMEOUT

    def test_exec_keeps_fd_table(self, kernel):
        observed = []

        @sim_function
        def helper(sys, fd):
            data, _ = yield from sys.recvmsg(fd)
            observed.append(data)
            yield from sys.exit(0)

        @sim_function
        def prog(sys):
            a, b = yield from sys.socketpair()
            yield from sys.sendmsg(a, b"kept-across-exec")
            yield from sys.exec("helper", helper, args=(b,))

        kernel.spawn_process(prog)
        kernel.run(max_steps=1_000)
        assert observed == [b"kept-across-exec"]

    def test_listener_shared_by_refcount_across_close(self, kernel):
        """A listener stays bound while any process still holds it."""

        @sim_function
        def child(sys, fd):
            while True:
                yield from sys.nanosleep(10_000_000)

        @sim_function
        def parent(sys):
            fd = yield from sys.socket()
            yield from sys.bind(fd, 7654)
            yield from sys.listen(fd)
            yield from sys.fork(child, args=(fd,), name="holder")
            yield from sys.close(fd)  # parent lets go; child still holds
            while True:
                yield from sys.nanosleep(10_000_000)

        kernel.spawn_process(parent)
        kernel.run(max_steps=1_000)
        listener = kernel.net.listener_for(7654)
        assert listener is not None and not listener.closed

    def test_heap_exhaustion_raises(self):
        space = AddressSpace()
        heap = PtMallocHeap(space, size=64 * 1024)
        heap.end_startup()
        with pytest.raises(AllocatorError):
            heap.malloc(128 * 1024)

    def test_thread_exception_does_not_kill_kernel(self, kernel):
        """An uncaught SimError inside one thread leaves others running."""
        results = []

        @sim_function
        def crasher(sys):
            yield from sys.send(999, b"boom")  # bad fd -> SimError thrown in

        @sim_function
        def survivor(sys):
            yield from sys.nanosleep(1_000_000)
            results.append("alive")

        kernel.spawn_process(crasher)
        kernel.spawn_process(survivor)
        with pytest.raises(BadFileDescriptor):
            kernel.run(max_steps=1_000)
        kernel.run(max_steps=1_000)
        assert results == ["alive"]
