"""Regression pins for failure modes discovered while building this repo.

Each test documents a real bug class found during development (all of
which the paper's design anticipates) and pins the fix.
"""

import pytest

import repro
from repro.kernel import Kernel, sim_function
from repro.kernel.fdtable import FDTable, FD_MAX, RESERVED_BASE, STASH_BASE
from repro.mcr.reinit.callstack import sanitize_result
from repro.mcr.reinit.startup_log import StartupLog, SyscallRecord
from repro.mem.address_space import AddressSpace
from repro.mem.ptmalloc import PtMallocHeap
from repro.mem.regions import RegionAllocator
from repro.mem.tags import TagStore
from repro.runtime.cruntime import CRuntime
from repro.types.descriptors import INT64, StructType


class TestFdSeparabilityRegression:
    """Bug: v1's config fd number was closed during startup and reused by
    the listener; replay then matched the *config open* against the
    *listener's* inherited number and silently swallowed a config change.
    Fix: startup-time fds come from the reserved, never-reused range."""

    def test_startup_fd_numbers_never_reused(self, kernel):
        @sim_function
        def prog(sys):
            cfg = yield from sys.open("/etc/x", "w")
            yield from sys.close(cfg)
            sock = yield from sys.socket()
            results.append((cfg, sock))
            while True:
                sys.loop_iter("m")
                yield from sys.nanosleep(10_000_000)

        from tests.helpers import boot_test_program, make_test_program

        results = []
        program = make_test_program([], main=prog, name="sep")
        program.quiescent_points = {("prog", "nanosleep")}
        boot_test_program(program, kernel=kernel)
        cfg, sock = results[0]
        assert cfg >= RESERVED_BASE and sock >= RESERVED_BASE
        assert cfg != sock  # the reuse that caused the ambiguity


class TestStashRangeRegression:
    """Bug: the inheritance stash used the same fd range as reserved
    startup fds, so a claimed fd could be GC'd as 'stash'.  Fix: the stash
    has its own disjoint range."""

    def test_ranges_disjoint(self):
        table = FDTable()
        reserved = table.install_reserved(object())
        stash = table.install_stash(object())
        assert RESERVED_BASE <= reserved < FD_MAX
        assert stash >= STASH_BASE
        # The stash now sits *above* the reserved range (wide enough for
        # 1000-worker trees); disjointness is what matters.
        assert STASH_BASE >= FD_MAX


class TestSocketpairSanitizationRegression:
    """Bug: sanitization turned socketpair's result tuple into a list, so
    its created fds were never recognized as inherited — the new version's
    epoll watched old endpoints while workers read new ones."""

    def test_pair_results_recognized_after_sanitization(self):
        raw = sanitize_result((904, 905))
        record = SyscallRecord(0, 100, ["m"], 1, "socketpair", {}, raw)
        assert record.created_fds == [904, 905]
        assert record.creates_immutable


class TestBootstrapFrameRegression:
    """Bug: the inheritance bootstrap was a @sim_function, adding a frame
    to every call stack, so no replayed syscall ever matched its record.
    Pin: a fresh update must replay (not live-execute) the listener."""

    def test_update_replays_rather_than_rebinds(self):
        world = repro.boot("simple")
        result = repro.live_update(world, 2)
        assert result.committed, result.error
        engine = result.new_session.replay_engine
        assert engine.replayed_count > 0
        # The listener object is shared, not recreated: same port owner.
        assert not world.kernel.net._listeners[8080].closed


class TestRegionTagCleanupRegression:
    """Bug: destroying an instrumented request region left stale tags
    behind; later traces resolved freed memory through them."""

    def test_region_destroy_drops_tags(self):
        space = AddressSpace()
        heap = PtMallocHeap(space)
        heap.end_startup()

        class FakeProcess:
            pass

        process = FakeProcess()
        process.space = space
        process.heap = heap
        process.tags = TagStore()

        class FakeKernel:
            from repro.clock import VirtualClock

            clock = VirtualClock()

        process.kernel = FakeKernel()
        process.runtime = None
        crt = CRuntime.__new__(CRuntime)
        crt.process = process
        crt._stacks = {}
        crt._next_stack_base = 0x5000_0000
        region = RegionAllocator(heap, block_size=512)
        node = StructType("n", [("x", INT64)])
        address = region.alloc(node.size)
        process.tags.register(address, node, "region")
        crt.region_destroy(region)
        assert process.tags.lookup(address) is None
        assert process.tags.find_containing(address) is None


class TestSuperobjectChainingRegression:
    """Bug: a second chained update could not resolve pointers into
    memory the first update had pinned as superobjects (no chunk
    bookkeeping).  Pin: reserved ranges resolve as opaque objects."""

    def test_three_chained_updates_with_pinned_state(self):
        world = repro.boot("simple")
        from repro.workloads.client import connect_with_retry, recv_line

        replies = []

        @sim_function
        def client(sys):
            fd = yield from connect_with_retry(sys, 8080)
            yield from sys.send(fd, b"push 4\n")  # creates the hidden buffer
            line = yield from recv_line(sys, fd)
            replies.append(line.decode().strip())
            yield from sys.close(fd)

        world.kernel.spawn_process(client)
        world.kernel.run(max_steps=300_000, until=lambda: bool(replies))
        from repro.mcr.ctl import McrCtl
        from repro.servers import simple

        ctl = McrCtl(world.kernel, world.session)
        for _ in range(3):
            result = ctl.live_update(simple.make_program(2))
            assert result.committed, result.error
        # State must still sum correctly after three generations.
        check = []

        @sim_function
        def summer(sys):
            fd = yield from connect_with_retry(sys, 8080)
            yield from sys.send(fd, b"sum\n")
            line = yield from recv_line(sys, fd)
            check.append(line.decode().strip())
            yield from sys.close(fd)

        world.kernel.spawn_process(summer)
        world.kernel.run(max_steps=300_000, until=lambda: bool(check))
        assert check == ["sum 4"]


class TestBaselineHeapModeRegression:
    """Bug: baseline (non-MCR) builds never left heap startup mode, so
    every free was deferred forever and baseline RSS grew unboundedly —
    skewing the memory-usage comparison."""

    def test_baseline_build_reuses_freed_memory(self):
        from repro.bench.harness import boot_server
        from repro.runtime.instrument import BuildConfig

        world = boot_server("nginx", build=BuildConfig.baseline())
        daemon = next(p for p in world.root.tree() if p.name == "nginx-daemon")
        assert not daemon.heap.startup_mode
        first = daemon.heap.malloc(64)
        daemon.heap.free(first)
        assert daemon.heap.malloc(64) == first
