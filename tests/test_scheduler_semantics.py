"""Scheduler and concurrency semantics of the simulated kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimError
from repro.kernel import Kernel, sim_function
from repro.kernel.kernel import Barrier
from repro.kernel.syscalls import TIMEOUT, Blocked


class TestFairness:
    def test_round_robin_interleaves_threads(self, kernel):
        order = []

        @sim_function
        def spinner(sys, tag, rounds):
            for _ in range(rounds):
                order.append(tag)
                yield from sys.sched_yield()

        kernel.spawn_process(spinner, args=("a", 5))
        kernel.spawn_process(spinner, args=("b", 5))
        kernel.run(max_steps=1_000)
        # Strict alternation within each scheduling round.
        assert order[:6] == ["a", "b", "a", "b", "a", "b"]

    def test_blocked_threads_do_not_starve_runnable(self, kernel):
        progressed = []

        @sim_function
        def blocked(sys):
            fd = yield from sys.socket()
            yield from sys.bind(fd, 9911)
            yield from sys.listen(fd)
            yield from sys.accept(fd)  # forever

        @sim_function
        def worker(sys):
            for index in range(100):
                yield from sys.cpu(100)
                progressed.append(index)

        kernel.spawn_process(blocked)
        kernel.spawn_process(worker)
        kernel.run(max_steps=5_000)
        assert len(progressed) == 100


class TestBlockingAndTimers:
    def test_timeout_vs_ready_prefers_ready(self, kernel):
        """If data arrives before the deadline, the data wins."""
        results = []

        @sim_function
        def receiver(sys, fd):
            data = yield from sys.recv(fd, timeout_ns=50_000_000)
            results.append(data)

        @sim_function
        def prog(sys):
            a, b = yield from sys.socketpair()
            listen = yield from sys.socket()
            yield from sys.bind(listen, 9912)
            yield from sys.listen(listen)
            conn_client = yield from sys.connect(9912)
            conn_server = yield from sys.accept(listen)
            yield from sys.thread_create(receiver, args=(conn_server,))
            yield from sys.nanosleep(1_000_000)  # well before the deadline
            yield from sys.send(conn_client, b"on-time")

        kernel.spawn_process(prog)
        kernel.run(max_steps=10_000)
        assert results == [b"on-time"]

    def test_multiple_sleepers_wake_in_deadline_order(self, kernel):
        wakes = []

        @sim_function
        def sleeper(sys, tag, ns):
            yield from sys.nanosleep(ns)
            wakes.append((tag, sys.kernel.clock.now_ns))

        kernel.spawn_process(sleeper, args=("late", 30_000_000))
        kernel.spawn_process(sleeper, args=("early", 10_000_000))
        kernel.spawn_process(sleeper, args=("mid", 20_000_000))
        kernel.run(max_steps=1_000)
        assert [w[0] for w in wakes] == ["early", "mid", "late"]
        assert wakes[0][1] <= wakes[1][1] <= wakes[2][1]

    def test_barrier_releases_all_waiters(self, kernel):
        barrier = Barrier()
        resumed = []

        @sim_function
        def waiter(sys, tag):
            yield from sys.raw("barrier_wait", {"barrier": barrier})
            resumed.append(tag)

        for tag in ("x", "y", "z"):
            kernel.spawn_process(waiter, args=(tag,))
        kernel.run(max_steps=100)
        assert barrier.arrived == 3 and resumed == []
        barrier.release()
        kernel.run(max_steps=100)
        assert sorted(resumed) == ["x", "y", "z"]


class TestOneWaitModel:
    """A parked thread wakes only by a kicked channel or its heap entry."""

    def test_a_park_naming_no_channel_and_no_wake_time_is_refused(self, kernel):
        kernel.syscalls.entries["stuck"] = (
            lambda thread: Blocked(lambda: (False, None), "x"),
            1_000,
        )
        delivered = []

        @sim_function
        def prog(sys):
            try:
                yield from sys.raw("stuck", {})
            except SimError as error:  # a kernel bug is no errno
                delivered.append(error)

        kernel.spawn_process(prog)
        with pytest.raises(RuntimeError, match="no wait channel and no wake time"):
            kernel.run(max_steps=10)
        assert delivered == []

    @pytest.mark.parametrize(
        "timeout_ns,due_ns,result",
        [(9_000, 5_000, None), (3_000, 3_000, TIMEOUT), (5_000, 5_000, None)],
    )
    def test_a_timed_nanosleep_leaves_one_heap_entry(self, kernel, timeout_ns, due_ns, result):
        results = []

        @sim_function
        def prog(sys):
            results.append((yield from sys.raw("nanosleep", {"duration_ns": 5_000}, timeout_ns)))

        kernel.spawn_process(prog)
        kernel.run(max_steps=1)
        parked_at = kernel.clock.now_ns
        assert [entry[0] - parked_at for entry in kernel._deadlines] == [due_ns]
        assert kernel.run() == "idle"
        assert results == [result]


class TestForkIsolation:
    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(1, 64)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_post_fork_allocations_never_corrupt_sibling(self, operations):
        """After fork, parent and child heaps evolve independently: bytes
        written by one are never visible to the other."""
        kernel = Kernel()
        observed = {}

        @sim_function
        def child(sys, ops):
            crt_writes = []
            for index, (_, size) in enumerate(ops):
                addr = sys.process.heap.malloc(size)
                sys.process.space.write_bytes(addr, b"C" * min(size, 8))
                crt_writes.append(addr)
            observed["child"] = [
                (a, sys.process.space.read_bytes(a, 1)) for a in crt_writes
            ]
            yield from sys.exit(0)

        @sim_function
        def parent(sys, ops):
            pre_fork = sys.process.heap.malloc(16)
            sys.process.space.write_bytes(pre_fork, b"SHARED!!")
            yield from sys.fork(child, args=(ops,), name="kid")
            writes = []
            for who, size in ops:
                addr = sys.process.heap.malloc(size)
                sys.process.space.write_bytes(addr, b"P" * min(size, 8))
                writes.append(addr)
            yield from sys.wait_child()
            observed["parent"] = [
                (a, sys.process.space.read_bytes(a, 1)) for a in writes
            ]
            observed["pre_fork_parent"] = sys.process.space.read_bytes(pre_fork, 8)

        kernel.spawn_process(parent, args=(operations,))
        kernel.run(max_steps=50_000)
        assert all(byte == b"P" for _, byte in observed["parent"])
        assert all(byte == b"C" for _, byte in observed["child"])
        assert observed["pre_fork_parent"] == b"SHARED!!"

    def test_fork_child_sees_prefork_heap_snapshot(self, kernel):
        seen = {}

        @sim_function
        def child(sys, addr):
            seen["child"] = sys.process.space.read_bytes(addr, 4)
            yield from sys.exit(0)

        @sim_function
        def parent(sys):
            addr = sys.process.heap.malloc(16)
            sys.process.space.write_bytes(addr, b"snap")
            yield from sys.fork(child, args=(addr,))
            sys.process.space.write_bytes(addr, b"post")
            yield from sys.wait_child()

        kernel.spawn_process(parent)
        kernel.run(max_steps=10_000)
        assert seen["child"] == b"snap"
