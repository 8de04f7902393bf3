"""Tests for the simulated kernel: scheduling, sockets, processes, fds."""

import pytest

from repro.errors import AddressInUse, BadFileDescriptor, SimError
from repro.kernel import Kernel, TIMEOUT, sim_function
from repro.kernel.fdtable import FDTable, RESERVED_BASE
from repro.kernel.namespaces import PidNamespace


@sim_function
def _echo_server(sys, port):
    fd = yield from sys.socket()
    yield from sys.bind(fd, port)
    yield from sys.listen(fd)
    while True:
        conn = yield from sys.accept(fd)
        while True:
            data = yield from sys.recv(conn)
            if not data:
                break
            yield from sys.send(conn, data)
        yield from sys.close(conn)


@sim_function
def _client(sys, port, payloads, out):
    while True:
        try:
            fd = yield from sys.connect(port)
            break
        except SimError:
            yield from sys.nanosleep(500_000)
    for payload in payloads:
        yield from sys.send(fd, payload)
        out.append((yield from sys.recv(fd)))
    yield from sys.close(fd)


class TestScheduler:
    def test_echo_roundtrip(self, kernel):
        out = []
        kernel.spawn_process(_echo_server, args=(1234,), name="srv")
        kernel.spawn_process(_client, args=(1234, [b"a", b"bb"], out), name="cli")
        assert kernel.run(max_steps=10_000) == "idle"
        assert out == [b"a", b"bb"]

    def test_virtual_time_advances(self, kernel):
        @sim_function
        def sleeper(sys):
            yield from sys.nanosleep(5_000_000)

        kernel.spawn_process(sleeper)
        kernel.run(max_steps=100)
        assert kernel.clock.now_ns >= 5_000_000

    def test_timeout_delivery(self, kernel):
        results = []

        @sim_function
        def waiter(sys):
            fd = yield from sys.socket()
            yield from sys.bind(fd, 99)
            yield from sys.listen(fd)
            result = yield from sys.accept(fd, timeout_ns=1_000_000)
            results.append(result)

        kernel.spawn_process(waiter)
        kernel.run(max_steps=1_000)
        assert results == [TIMEOUT]

    def test_until_predicate_stops(self, kernel):
        @sim_function
        def spinner(sys):
            while True:
                yield from sys.sched_yield()

        kernel.spawn_process(spinner)
        target = {}
        reason = kernel.run(
            max_steps=10_000, until=lambda: kernel.steps_executed >= 50
        )
        assert reason == "until"

    def test_max_ns_budget(self, kernel):
        @sim_function
        def sleeper(sys):
            while True:
                yield from sys.nanosleep(10_000_000)

        kernel.spawn_process(sleeper)
        reason = kernel.run(max_ns=50_000_000, max_steps=100_000)
        assert reason == "max_ns"

    def test_cpu_charges_clock(self, kernel):
        @sim_function
        def burner(sys):
            yield from sys.cpu(123_000)

        kernel.spawn_process(burner)
        kernel.run(max_steps=10)
        assert kernel.clock.now_ns >= 123_000


class TestProcesses:
    def test_fork_clones_memory(self, kernel):
        seen = {}

        @sim_function
        def child(sys, addr):
            seen["child"] = sys.process.space.read_bytes(addr, 5)
            sys.process.space.write_bytes(addr, b"CCCCC")
            yield from sys.exit(0)

        @sim_function
        def parent(sys):
            addr = sys.process.heap.malloc(32)
            sys.process.space.write_bytes(addr, b"PPPPP")
            yield from sys.fork(child, args=(addr,), name="kid")
            yield from sys.wait_child()
            seen["parent_after"] = sys.process.space.read_bytes(addr, 5)

        kernel.spawn_process(parent)
        kernel.run(max_steps=10_000)
        assert seen["child"] == b"PPPPP"
        assert seen["parent_after"] == b"PPPPP"  # COW semantics: isolated

    def test_fork_shares_fds(self, kernel):
        results = []

        @sim_function
        def child(sys, fd):
            yield from sys.sendmsg(fd, b"hello-from-child")
            yield from sys.exit(0)

        @sim_function
        def parent(sys):
            a, b = yield from sys.socketpair()
            yield from sys.fork(child, args=(b,), name="kid")
            data, _fds = yield from sys.recvmsg(a)
            results.append(data)

        kernel.spawn_process(parent)
        kernel.run(max_steps=10_000)
        assert results == [b"hello-from-child"]

    def test_wait_child_returns_status(self, kernel):
        got = []

        @sim_function
        def child(sys):
            yield from sys.exit(7)

        @sim_function
        def parent(sys):
            pid = yield from sys.fork(child, name="kid")
            got.append((yield from sys.wait_child()))
            got.append(pid)

        kernel.spawn_process(parent)
        kernel.run(max_steps=10_000)
        assert got[0][1] == 7
        assert got[0][0] == got[1]

    def test_exec_replaces_image(self, kernel):
        trail = []

        @sim_function
        def helper(sys):
            trail.append("helper-ran")
            yield from sys.exit(0)

        @sim_function
        def prog(sys):
            trail.append("before-exec")
            yield from sys.exec("helper", helper)
            trail.append("unreachable")

        process = kernel.spawn_process(prog)
        kernel.run(max_steps=10_000)
        assert trail == ["before-exec", "helper-ran"]
        assert process.name == "helper"

    def test_terminate_tree(self, kernel):
        @sim_function
        def child(sys):
            while True:
                yield from sys.nanosleep(1_000_000)

        @sim_function
        def parent(sys):
            yield from sys.fork(child, name="kid")
            while True:
                yield from sys.nanosleep(1_000_000)

        root = kernel.spawn_process(parent)
        kernel.run(max_steps=100)
        assert len(root.tree()) == 2
        kernel.terminate_tree(root)
        assert root.exited and all(p.exited for p in kernel.processes.values())

    def test_pid_namespace_forced_ids(self, kernel):
        ns = PidNamespace(first_pid=500)
        ns.force_next_pid(42)
        assert ns.allocate() == 42
        assert ns.allocate() == 500

    def test_forced_pid_in_use_raises(self):
        ns = PidNamespace()
        pid = ns.allocate()
        with pytest.raises(SimError):
            ns.force_next_pid(pid)

    def test_same_pid_in_two_namespaces(self, kernel):
        @sim_function
        def idle(sys):
            while True:
                yield from sys.nanosleep(1_000_000)

        ns = PidNamespace(first_pid=1000)
        a = kernel.spawn_process(idle, name="a")
        ns.force_next_pid(a.pid)
        b = kernel.spawn_process(idle, name="b", namespace=ns)
        assert a.pid == b.pid
        assert a.namespace is kernel.pidns and b.namespace is ns


class TestSockets:
    def test_bind_conflict(self, kernel):
        errors = []

        @sim_function
        def binder(sys, port):
            fd = yield from sys.socket()
            try:
                yield from sys.bind(fd, port)
                yield from sys.listen(fd)
            except AddressInUse as error:
                errors.append(error)
            while True:
                yield from sys.nanosleep(1_000_000_000)

        kernel.spawn_process(binder, args=(80,))
        kernel.spawn_process(binder, args=(80,))
        kernel.run(max_steps=500)
        assert len(errors) == 1

    def test_connection_refused(self, kernel):
        errors = []

        @sim_function
        def lone_client(sys):
            try:
                yield from sys.connect(4444)
            except SimError as error:
                errors.append(error)

        kernel.spawn_process(lone_client)
        kernel.run(max_steps=100)
        assert len(errors) == 1

    def test_epoll_watches_listener_and_stream(self, kernel):
        events = []

        @sim_function
        def server(sys):
            fd = yield from sys.socket()
            yield from sys.bind(fd, 777)
            yield from sys.listen(fd)
            epfd = yield from sys.epoll_create()
            yield from sys.epoll_ctl(epfd, "add", fd)
            ready = yield from sys.epoll_wait(epfd)
            events.append(("accept-ready", ready == [fd]))
            conn = yield from sys.accept(fd)
            yield from sys.epoll_ctl(epfd, "add", conn)
            ready = yield from sys.epoll_wait(epfd)
            events.append(("data-ready", conn in ready))
            data = yield from sys.recv(conn)
            events.append(("data", data))

        @sim_function
        def client(sys):
            while True:
                try:
                    fd = yield from sys.connect(777)
                    break
                except SimError:
                    yield from sys.nanosleep(100_000)
            yield from sys.send(fd, b"ping")
            while True:
                yield from sys.nanosleep(10_000_000)

        kernel.spawn_process(server)
        kernel.spawn_process(client)
        kernel.run(max_steps=5_000, max_ns=500_000_000)
        assert ("accept-ready", True) in events
        assert ("data-ready", True) in events
        assert ("data", b"ping") in events

    def test_fd_passing_preserves_object(self, kernel):
        results = []

        @sim_function
        def prog(sys):
            a, b = yield from sys.socketpair()
            listen = yield from sys.socket()
            yield from sys.bind(listen, 888)
            yield from sys.listen(listen)
            yield from sys.sendmsg(a, b"take-this", pass_fds=[listen])
            data, fds = yield from sys.recvmsg(b)
            obj_original = sys.process.fdtable.get(listen)
            obj_received = sys.process.fdtable.get(fds[0])
            results.append(obj_original is obj_received)

        kernel.spawn_process(prog)
        kernel.run(max_steps=1_000)
        assert results == [True]


class TestFDTable:
    def test_lowest_free_allocation(self):
        table = FDTable()
        assert table.install(object()) == 0
        assert table.install(object()) == 1
        table.close(0)
        assert table.install(object()) == 0

    def test_explicit_number(self):
        table = FDTable()
        assert table.install(object(), fd=5) == 5
        with pytest.raises(BadFileDescriptor):
            table.install(object(), fd=5)

    def test_reserved_range(self):
        table = FDTable()
        fd = table.install_reserved(object())
        assert fd >= RESERVED_BASE
        table.close(fd)
        # Reserved numbers are never reused.
        assert table.install_reserved(object()) != fd

    def test_block_reuse(self):
        table = FDTable()
        fd = table.install(object())
        table.close(fd)
        table.block_reuse(fd)
        assert table.install(object()) != fd

    def test_bad_fd(self):
        table = FDTable()
        with pytest.raises(BadFileDescriptor):
            table.get(3)

    def test_clone_shares_objects(self):
        class Obj:
            kind = "x"
            refcount = 1

            def acquire(self):
                self.refcount += 1

        table = FDTable()
        obj = Obj()
        fd = table.install(obj)
        twin = table.clone()
        assert twin.get(fd) is obj
        assert obj.refcount == 2


class TestFiles:
    def test_config_read(self, kernel):
        kernel.fs.create("/etc/x.conf", b"value=1\n")
        got = []

        @sim_function
        def reader(sys):
            fd = yield from sys.open("/etc/x.conf")
            got.append((yield from sys.read(fd)))
            yield from sys.close(fd)

        kernel.spawn_process(reader)
        kernel.run(max_steps=100)
        assert got == [b"value=1\n"]

    def test_write_and_stat(self, kernel):
        @sim_function
        def writer(sys):
            fd = yield from sys.open("/var/log/app.log", "w")
            yield from sys.write(fd, b"line1\n")
            yield from sys.write(fd, b"line2\n")
            yield from sys.close(fd)

        kernel.spawn_process(writer)
        kernel.run(max_steps=100)
        assert kernel.fs.open("/var/log/app.log").read(64) == b"line1\nline2\n"
        assert kernel.fs.size("/var/log/app.log") == 12
