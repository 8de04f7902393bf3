"""Tests for quiescence detection (barrier protocol, unblockification)
and the profiler's error paths."""

import pytest

from repro.errors import ProfilerError, QuiescenceTimeout
from repro.kernel import Kernel, sim_function
from repro.kernel.process import Thread
from repro.mcr.quiescence.profiler import QuiescenceProfiler
from repro.mcr.quiescence.report import QuiescenceReport, ThreadClass
from repro.runtime.instrument import BuildConfig
from repro.runtime.libmcr import MCRSession
from repro.runtime.program import GlobalVar, load_program
from repro.servers import simple
from repro.servers.catalog import boot
from repro.servers.common import connect_with_retry

from tests.helpers import boot_test_program, make_test_program


class TestBarrierProtocol:
    def _boot_simple(self, kernel):
        world = boot("simple", kernel=kernel)
        return world.session, world.root

    def test_request_wait_release_cycle(self, kernel):
        session, root = self._boot_simple(kernel)
        session.quiescence.request()
        elapsed = session.quiescence.wait(root)
        assert elapsed <= 100_000_000  # paper: < 100 ms
        assert session.quiescence.is_quiescent(root)
        session.quiescence.release()
        kernel.run(max_steps=10_000)
        assert not any(t.at_barrier for t in root.live_threads())

    def test_held_yields_the_wait_and_releases_even_on_error(self, kernel):
        session, root = self._boot_simple(kernel)
        protocol = session.quiescence
        with protocol.held(root) as elapsed:
            assert 0 <= elapsed <= 100_000_000
            assert protocol.requested and protocol.is_quiescent(root)
        assert not protocol.requested and protocol.barrier is None
        with pytest.raises(RuntimeError):
            with protocol.held(root):
                raise RuntimeError("the block died while parked")
        assert not protocol.requested and protocol.barrier is None
        kernel.run(max_steps=10_000)
        assert not any(t.at_barrier for t in root.live_threads())

    def test_quiescence_converges_under_load(self, kernel):
        session, root = self._boot_simple(kernel)
        replies = []

        @sim_function
        def chatty(sys):
            fd = yield from connect_with_retry(sys, 8080)
            for i in range(50):
                yield from sys.send(fd, f"push {i}\n".encode())
                replies.append((yield from sys.recv(fd)))
            yield from sys.close(fd)

        kernel.spawn_process(chatty)
        kernel.run(max_steps=3_000)  # mid-flight
        session.quiescence.request()
        elapsed = session.quiescence.wait(root)
        assert elapsed <= 100_000_000
        session.quiescence.release()
        kernel.run(max_steps=500_000)
        assert len(replies) == 50  # no request lost across the pause

    def test_no_events_consumed_while_quiesced(self, kernel):
        session, root = self._boot_simple(kernel)
        session.quiescence.request()
        session.quiescence.wait(root)

        @sim_function
        def impatient(sys):
            fd = yield from connect_with_retry(sys, 8080)
            yield from sys.send(fd, b"push 1\n")
            data = yield from sys.recv(fd, timeout_ns=100_000_000)
            return data

        client = kernel.spawn_process(impatient)
        kernel.run(max_steps=50_000)
        # The server is at the barrier: the request sits unanswered.
        from repro.kernel.syscalls import TIMEOUT

        assert client.threads[1].exit_value is TIMEOUT
        # Release: the pending request is served from the accept queue.
        session.quiescence.release()
        replies = []

        @sim_function
        def follower(sys):
            fd = yield from connect_with_retry(sys, 8080)
            yield from sys.send(fd, b"sum\n")
            replies.append((yield from sys.recv(fd)))

        kernel.spawn_process(follower)
        kernel.run(max_steps=200_000, until=lambda: bool(replies))
        assert replies and replies[0].startswith(b"sum")

    def test_timeout_when_thread_cannot_quiesce(self, kernel):
        # A program whose only thread blocks at a NON-instrumented site
        # can never reach the barrier -> QuiescenceTimeout.
        @sim_function
        def stubborn_main(sys):
            fd = yield from sys.socket()
            yield from sys.bind(fd, 4321)
            yield from sys.listen(fd)
            while True:
                # accept is not in quiescent_points -> not unblockified.
                conn = yield from sys.accept(fd)
                yield from sys.close(conn)

        program = make_test_program([], main=stubborn_main, name="stubborn")
        program.quiescent_points = {("somewhere_else", "accept")}
        kernel_, session, proc = boot_test_program(program)
        # Startup never completes (no QP reached); force the protocol.
        session.quiescence.request()
        with pytest.raises(QuiescenceTimeout):
            session.quiescence.wait(proc, deadline_ns=100_000_000)


class TestUnblockification:
    def test_wrapped_call_preserves_semantics(self, kernel):
        """A QP call still returns real results through the wrapper."""
        simple.setup_world(kernel)
        program = simple.make_program(1)
        session = MCRSession(kernel, program, BuildConfig.full())
        load_program(kernel, program, build=BuildConfig.full(), session=session)
        replies = []

        @sim_function
        def client(sys):
            fd = yield from connect_with_retry(sys, 8080)
            yield from sys.send(fd, b"version\n")
            replies.append((yield from sys.recv(fd)))

        kernel.spawn_process(client)
        kernel.run(max_steps=300_000, until=lambda: bool(replies))
        assert replies[0].startswith(b"version")

    def test_idle_server_keeps_polling_without_busy_loop(self, kernel):
        simple.setup_world(kernel)
        program = simple.make_program(1)
        session = MCRSession(kernel, program, BuildConfig.full())
        root = load_program(kernel, program, build=BuildConfig.full(), session=session)
        kernel.run(until=lambda: session.startup_complete, max_steps=100_000)
        steps_before = kernel.steps_executed
        kernel.run(max_ns=500_000_000, max_steps=100_000)  # 0.5 s idle
        # ~25 slices of 20 ms, a handful of steps each: bounded polling.
        assert kernel.steps_executed - steps_before < 1_000


class TestProfilerErrors:
    def test_empty_workload_rejected(self, kernel):
        simple.setup_world(kernel)
        profiler = QuiescenceProfiler(kernel)
        with pytest.raises(ProfilerError):
            profiler.profile(simple.make_program(1), lambda k: [])

    def test_workload_that_never_stalls_rejected(self, kernel):
        simple.setup_world(kernel)
        profiler = QuiescenceProfiler(kernel)

        @sim_function
        def spinner(sys):
            while True:
                yield from sys.sched_yield()

        def workload(k):
            return [k.spawn_process(spinner)]

        with pytest.raises(ProfilerError):
            profiler.profile(simple.make_program(1), workload, workload_steps=20_000)


@sim_function
def _sleepy_loop(sys):
    for _ in range(3):
        sys.loop_iter("main")
        yield from sys.nanosleep(1_000)


class TestProfilerBookkeeping:
    """Only the kernel a ``QuiescenceProfiler`` owns keeps profiling input."""

    def _count_calls(self, monkeypatch):
        """Threads asked for their function, whether for a wait site or a
        loop key (an uninstrumented program asks for nothing else)."""
        asked = []
        top_function = Thread.top_function
        monkeypatch.setattr(
            Thread, "top_function", lambda thread: asked.append(thread) or top_function(thread)
        )
        return asked

    def test_a_plain_kernel_builds_no_wait_site_and_no_loop_key(self, kernel, monkeypatch):
        asked = self._count_calls(monkeypatch)
        process = kernel.spawn_process(_sleepy_loop)
        assert kernel.run() == "idle" and process.exited
        assert kernel.profiler is None and asked == []
        (thread,) = process.threads.values()
        for field in ("loop_counts", "loop_stack", "blocking_time_ns", "started_ns"):
            assert not hasattr(thread, field)

    def test_the_profiled_kernel_keeps_stalls_and_loops_per_thread(self, kernel, monkeypatch):
        asked = self._count_calls(monkeypatch)
        profiler = QuiescenceProfiler(kernel)
        process = kernel.spawn_process(_sleepy_loop)
        assert kernel.run() == "idle"
        (thread,) = process.threads.values()
        assert kernel.profiler is profiler and asked == [thread] * 6
        assert profiler.stalls == {thread: {"_sleepy_loop:nanosleep": 3_000}}
        assert list(profiler.loops[thread]) == ["_sleepy_loop:main"]


class TestReport:
    def _report(self):
        report = QuiescenceReport("prog")
        persistent = ThreadClass(1, ["main"])
        persistent.kind = "long"
        persistent.persistent = True
        persistent.quiescent_point = ("loop", "accept")
        persistent.count = 1
        volatile = ThreadClass(2, ["main", "worker"])
        volatile.kind = "long"
        volatile.persistent = False
        volatile.quiescent_point = ("wloop", "recv")
        volatile.count = 3
        short = ThreadClass(3, ["main", "helper"])
        short.kind = "short"
        short.count = 2
        short.exited_count = 2
        for cls in (persistent, volatile, short):
            report.add_class(cls)
        return report

    def test_summary_counts(self):
        summary = self._report().summary()
        assert summary == {"SL": 1, "LL": 2, "QP": 2, "Per": 1, "Vol": 1}

    def test_point_sets(self):
        report = self._report()
        assert report.quiescent_points() == {("loop", "accept"), ("wloop", "recv")}

    def test_render_contains_classes(self):
        text = self._report().render()
        assert "persistent" in text and "volatile" in text
        assert "SL=1 LL=2" in text
