"""Tests for the runtime layer: cruntime, program loading, build configs,
and the libmcr interception (recording, separability, metadata)."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import AllocatorError, MemoryFault, SimError
from repro.kernel import Kernel, sim_function
from repro.kernel.fdtable import RESERVED_BASE, STASH_BASE
from repro.kernel.process import Process
from repro.mem.pages import PAGE_SIZE
from repro.runtime.cruntime import CRuntime, SharedLib
from repro.runtime.instrument import BuildConfig
from repro.runtime.libmcr import MCRSession
from repro.runtime.program import GlobalVar, Program, load_program
from repro.types.descriptors import (
    ArrayType,
    CHAR,
    INT32,
    INT64,
    PointerType,
    StructType,
)

from tests.helpers import boot_test_program, idle_main, make_test_program

NODE = StructType("node", [("value", INT32), ("next", PointerType(None, name="node*"))])


class TestBuildConfig:
    def test_ladder_is_cumulative(self):
        unblock = BuildConfig.unblock()
        sinstr = BuildConfig.sinstr()
        dinstr = BuildConfig.dinstr()
        qdet = BuildConfig.qdet()
        assert unblock.unblockify and not unblock.static_instr
        assert sinstr.static_instr and not sinstr.dynamic_instr
        assert dinstr.dynamic_instr and not dinstr.qdet
        assert qdet.qdet and qdet.updatable

    def test_baseline_is_not_mcr(self):
        assert not BuildConfig.baseline().mcr_enabled

    def test_only_full_build_is_updatable(self):
        assert not BuildConfig.dinstr().updatable
        assert BuildConfig.full().updatable


class TestCRuntime:
    def test_typed_malloc_registers_tag(self):
        kernel, session, proc = boot_test_program(
            make_test_program([], types={"node": NODE})
        )
        addr = proc.crt.malloc_typed(proc.threads[1], NODE)
        tag = proc.tags.lookup(addr)
        assert tag is not None and tag.type.name == "node"

    def test_untyped_malloc_has_no_tag(self):
        kernel, session, proc = boot_test_program(make_test_program([]))
        addr = proc.crt.malloc(64)
        assert proc.tags.lookup(addr) is None

    def test_free_unregisters_tag(self):
        kernel, session, proc = boot_test_program(make_test_program([]))
        addr = proc.crt.malloc_typed(proc.threads[1], NODE)
        proc.crt.free(addr)
        assert proc.tags.lookup(addr) is None

    def test_baseline_build_registers_nothing(self):
        kernel, session, proc = boot_test_program(
            make_test_program([]), build=BuildConfig.baseline()
        )
        addr = proc.crt.malloc_typed(proc.threads[1], NODE)
        assert proc.tags.lookup(addr) is None

    def test_struct_field_roundtrip(self):
        kernel, session, proc = boot_test_program(make_test_program([]))
        crt = proc.crt
        addr = crt.malloc_typed(proc.threads[1], NODE)
        crt.set(addr, NODE, "value", 77)
        assert crt.get(addr, NODE, "value") == 77

    def test_global_accessors(self):
        kernel, session, proc = boot_test_program(
            make_test_program([GlobalVar("counter", INT64, init=5)])
        )
        assert proc.crt.gget("counter") == 5
        proc.crt.gset("counter", 6)
        assert proc.crt.gget("counter") == 6

    def test_cstr_roundtrip(self):
        kernel, session, proc = boot_test_program(
            make_test_program([GlobalVar("name", ArrayType(CHAR, 16))])
        )
        crt = proc.crt
        crt.write_cstr(crt.global_addr("name"), "hello")
        assert crt.read_cstr(crt.global_addr("name")) == "hello"

    def test_cstr_capacity_enforced(self):
        kernel, session, proc = boot_test_program(make_test_program([]))
        addr = proc.crt.malloc(8)
        with pytest.raises(AllocatorError):
            proc.crt.write_cstr(addr, "way too long for this", capacity=8)

    def test_strdup_is_opaque_char_array(self):
        kernel, session, proc = boot_test_program(make_test_program([]))
        addr = proc.crt.strdup(proc.threads[1], "text")
        tag = proc.tags.lookup(addr)
        assert tag is not None and tag.type.is_opaque()
        assert proc.crt.read_cstr(addr) == "text"

    def test_stack_alloc_and_release(self):
        kernel, session, proc = boot_test_program(make_test_program([]))
        crt = proc.crt
        thread = proc.threads[1]
        mark = crt.stack_mark(thread)
        addr = crt.stack_alloc(thread, "local", NODE)
        assert proc.tags.lookup(addr) is not None
        crt.stack_release(thread, mark)
        assert proc.tags.lookup(addr) is None

    def test_instrumented_alloc_charges_more_time(self):
        k1, s1, p1 = boot_test_program(make_test_program([]), build=BuildConfig.baseline())
        t0 = k1.clock.now_ns
        for _ in range(100):
            p1.crt.malloc_typed(p1.threads[1], NODE)
        base_cost = k1.clock.now_ns - t0
        k2, s2, p2 = boot_test_program(make_test_program([]))
        t0 = k2.clock.now_ns
        for _ in range(100):
            p2.crt.malloc_typed(p2.threads[1], NODE)
        instr_cost = k2.clock.now_ns - t0
        assert instr_cost > base_cost * 2


class TestSharedLib:
    def test_lib_allocates_in_lib_region(self):
        kernel, session, proc = boot_test_program(make_test_program([]))
        lib = SharedLib(proc, "libfoo", 4096)
        addr = lib.alloc(64)
        mapping = proc.space.mapping_at(addr)
        assert mapping.kind == "lib"

    def test_lib_alloc_tagged_under_dinstr(self):
        kernel, session, proc = boot_test_program(make_test_program([]))
        lib = SharedLib(proc, "libfoo", 4096)
        addr = lib.alloc(64)
        tag = proc.tags.lookup(addr)
        assert tag is not None and tag.origin == "lib"

    def test_lib_out_of_space(self):
        kernel, session, proc = boot_test_program(make_test_program([]))
        lib = SharedLib(proc, "libtiny", 4096)
        with pytest.raises(AllocatorError):
            lib.alloc(8192)

    def test_fixed_base_mapping(self):
        kernel, session, proc = boot_test_program(make_test_program([]))
        lib = SharedLib(proc, "libpinned", 4096, base=0x7F10_0000)
        assert lib.base == 0x7F10_0000


class TestProgramLoading:
    def test_globals_laid_out_and_initialized(self):
        program = make_test_program(
            [
                GlobalVar("a", INT32, init=3),
                GlobalVar("b", INT64, init=-9),
                GlobalVar("text", ArrayType(CHAR, 8), init=b"hi"),
            ]
        )
        kernel, session, proc = boot_test_program(program)
        assert proc.crt.gget("a") == 3
        assert proc.crt.gget("b") == -9
        assert proc.symbols.lookup("a").address != proc.symbols.lookup("b").address

    def test_pinned_symbols_honored(self):
        from repro.mem.address_space import DATA_BASE

        pin = DATA_BASE + 0x800
        program = make_test_program([GlobalVar("x", INT64), GlobalVar("y", INT64)])
        program.pinned_symbols = {"y": pin}
        kernel, session, proc = boot_test_program(program)
        assert proc.symbols.lookup("y").address == pin
        # x must not overlap the pinned range.
        assert proc.symbols.lookup("x").address != pin

    def test_pin_outside_segment_rejected(self):
        program = make_test_program([GlobalVar("x", INT64)])
        program.pinned_symbols = {"x": 0x10}
        with pytest.raises(SimError):
            boot_test_program(program)

    def test_static_tags_registered(self):
        program = make_test_program([GlobalVar("g", INT64)])
        kernel, session, proc = boot_test_program(program)
        symbol = proc.symbols.lookup("g")
        tag = proc.tags.lookup(symbol.address)
        assert tag is not None and tag.origin == "static"

    def test_type_changes_diff(self):
        from repro.servers import simple

        diff = simple.make_program(2).type_changes(simple.make_program(1))
        assert diff["changed"] == ["l_t"]
        assert diff["added"] == [] and diff["removed"] == []


class TestLibmcrRecording:
    def test_startup_syscalls_recorded_until_qp(self):
        recorded = []

        @sim_function
        def recording_main(sys):
            yield from sys.open("/etc/f", "w")
            while True:
                sys.loop_iter("main")
                yield from sys.nanosleep(10_000_000)

        program = make_test_program([], main=recording_main, name="rec")
        program.quiescent_points = {("recording_main", "nanosleep")}
        kernel, session, proc = boot_test_program(program)
        names = [r.name for r in session.startup_log.records()]
        assert "open" in names
        # Post-startup syscalls are not recorded.
        before = len(session.startup_log)
        kernel.run(max_ns=100_000_000, max_steps=10_000)
        assert len(session.startup_log) == before

    def test_startup_fds_come_from_reserved_range(self):
        @sim_function
        def fd_main(sys):
            fd = yield from sys.socket()
            assert fd >= RESERVED_BASE
            yield from sys.bind(fd, 7777)
            yield from sys.listen(fd)
            while True:
                sys.loop_iter("main")
                yield from sys.nanosleep(10_000_000)

        program = make_test_program([], main=fd_main, name="fds")
        program.quiescent_points = {("fd_main", "nanosleep")}
        kernel, session, proc = boot_test_program(program)
        assert session.startup_complete

    def test_post_startup_fds_are_ordinary(self, kernel):
        from repro.servers import simple
        from repro.servers.common import connect_with_retry

        simple.setup_world(kernel)
        program = simple.make_program(1)
        session = MCRSession(kernel, program, BuildConfig.full())
        root = load_program(kernel, program, build=BuildConfig.full(), session=session)
        seen = []

        @sim_function
        def client(sys):
            fd = yield from connect_with_retry(sys, 8080)
            yield from sys.send(fd, b"push 1\n")
            seen.append((yield from sys.recv(fd)))
            yield from sys.close(fd)

        kernel.spawn_process(client)
        kernel.run(max_steps=300_000, until=lambda: bool(seen))
        # The accepted connection fd in the server sits below the ranges.
        conn_fds = [
            fd
            for fd, obj in root.fdtable.items()
            if obj.kind == "stream"
        ]
        # (connection already closed is fine; assert no leak into ranges)
        for fd in root.fdtable.fds():
            assert fd < STASH_BASE or root.fdtable.get(fd).kind != "stream"

    def test_metadata_bytes_accounts_components(self):
        kernel, session, proc = boot_test_program(make_test_program([GlobalVar("g", INT64)]))
        total = session.metadata_bytes()
        assert total > proc.tags.overhead_bytes()

    def test_baseline_process_has_no_runtime(self):
        kernel, session, proc = boot_test_program(
            make_test_program([]), build=BuildConfig.baseline()
        )
        assert proc.runtime is None and session is None


def byte_loop_read_cstr(space, address, limit=4096):
    """``CRuntime.read_cstr`` as it was: one ``read_bytes`` call per byte."""
    out = bytearray()
    cursor = address
    while len(out) < limit:
        chunk = space.read_bytes(cursor, 1)
        if chunk == b"\x00":
            break
        out.extend(chunk)
        cursor += 1
    return out.decode(errors="replace")


def _outcome(read):
    try:
        return ("ok", read())
    except MemoryFault as fault:
        return ("fault", fault.address, str(fault))


class TestReadCstrAgainstTheByteLoop:
    """One ``find`` per mapping must read what one ``read_bytes`` per byte did."""

    BASE = 0x7000_0000

    @given(
        tail=st.binary(max_size=48),
        back=st.integers(0, 48),
        limit=st.integers(0, 80),
        neighbour=st.none() | st.binary(max_size=24),
    )
    # NUL absent, string runs off the end of its mapping: same fault.
    @example(tail=b"abc", back=3, limit=4096, neighbour=None)
    # ...unless the limit stops it first, or exactly at the last byte.
    @example(tail=b"abc", back=3, limit=2, neighbour=None)
    @example(tail=b"abc", back=3, limit=3, neighbour=None)
    # NUL at offset 0, and on the last byte of the mapping.
    @example(tail=b"\x00bc", back=3, limit=4096, neighbour=None)
    @example(tail=b"ab\x00", back=3, limit=4096, neighbour=None)
    # limit just below / at / just above the distance to the NUL.
    @example(tail=b"abcd\x00e", back=6, limit=3, neighbour=None)
    @example(tail=b"abcd\x00e", back=6, limit=4, neighbour=None)
    @example(tail=b"abcd\x00e", back=6, limit=5, neighbour=None)
    # The string continues into a mapping that starts where this one ends.
    @example(tail=b"ab", back=2, limit=4096, neighbour=b"cd\x00e")
    @example(tail=b"\xff\xfe", back=2, limit=3, neighbour=b"cd")
    def test_same_string_same_truncation_same_fault(self, tail, back, limit, neighbour):
        kernel = Kernel()
        process = Process(1, kernel, "strings")
        space = process.space
        first = space.map(PAGE_SIZE, address=self.BASE)
        space.write_bytes(first.base, b"\xaa" * PAGE_SIZE)  # no stray terminator
        if tail:
            space.write_bytes(first.end - len(tail), tail)
        if neighbour is not None:
            second = space.map(PAGE_SIZE, address=first.end)
            if neighbour:
                space.write_bytes(second.base, neighbour)
        address = first.end - min(back, len(tail))
        faults_before = space.soft_dirty_faults
        crt = CRuntime(process)
        assert _outcome(lambda: crt.read_cstr(address, limit)) == _outcome(
            lambda: byte_loop_read_cstr(space, address, limit)
        )
        assert space.soft_dirty_faults == faults_before  # a read stays a read

    def test_default_limit_and_unmapped_start(self):
        process = Process(1, Kernel(), "strings")
        space = process.space
        mapping = space.map(2 * PAGE_SIZE, address=self.BASE)
        space.write_bytes(mapping.base, b"x" * (2 * PAGE_SIZE))
        crt = CRuntime(process)
        assert crt.read_cstr(mapping.base) == "x" * 4096
        assert crt.read_cstr(mapping.base, limit=0) == ""
        assert crt.read_cstr(mapping.end, limit=0) == ""  # never touches memory
        assert _outcome(lambda: crt.read_cstr(mapping.end)) == _outcome(
            lambda: byte_loop_read_cstr(space, mapping.end)
        )
