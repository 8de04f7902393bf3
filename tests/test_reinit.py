"""Unit tests for mutable reinitialization: log, matching, stash, realloc."""

import pytest

from repro.errors import SimError
from repro.kernel.process import call_stack_id
from repro.mcr.reinit.callstack import deep_match, sanitize_args, sanitize_result
from repro.mcr.reinit.immutable import FdEntry, FdStash, ImmutableInventory
from repro.mcr.reinit.realloc import GlobalRealloc, Superobject, coalesce
from repro.mcr.reinit.startup_log import StartupLog, SyscallRecord


class TestCallStackId:
    def test_deterministic(self):
        assert call_stack_id(["main", "init"]) == call_stack_id(["main", "init"])

    def test_order_sensitive(self):
        assert call_stack_id(["a", "b"]) != call_stack_id(["b", "a"])

    def test_version_agnostic_names_only(self):
        # Same function names across versions -> same id, by construction.
        assert call_stack_id(["simple_main", "server_init"]) == call_stack_id(
            ["simple_main", "server_init"]
        )

    def test_empty_stack(self):
        assert isinstance(call_stack_id([]), int)


class TestSanitize:
    def test_callables_become_names(self):
        def worker_body():
            pass

        out = sanitize_args({"child_main": worker_body})
        assert out["child_main"] == "<fn:worker_body>"

    def test_small_bytes_inline(self):
        assert sanitize_args({"data": b"hi"})["data"] == b"hi"

    def test_large_bytes_digested(self):
        out = sanitize_args({"data": b"x" * 1000})
        assert isinstance(out["data"], str) and out["data"].startswith("<bytes:1000:")

    def test_same_large_payload_same_digest(self):
        a = sanitize_result(b"y" * 500)
        b = sanitize_result(b"y" * 500)
        assert a == b

    def test_opaque_objects_by_type(self):
        class Pool:
            pass

        assert sanitize_args({"pool": Pool()})["pool"] == "<obj:Pool>"

    def test_nested_structures(self):
        out = sanitize_args({"args": ({"k": b"z" * 200}, 5)})
        assert out["args"][1] == 5
        assert out["args"][0]["k"].startswith("<bytes:200:")


class TestDeepMatch:
    def test_exact_match(self):
        assert deep_match({"fd": 3, "port": 80}, {"fd": 3, "port": 80})

    def test_value_mismatch(self):
        assert not deep_match({"port": 80}, {"port": 8080})

    def test_key_set_mismatch(self):
        assert not deep_match({"port": 80}, {"port": 80, "backlog": 1})

    def test_fd_translation(self):
        assert deep_match({"fd": 4}, {"fd": 9}, fd_translation={4: 9})

    def test_fd_translation_misses(self):
        assert not deep_match({"fd": 4}, {"fd": 9}, fd_translation={4: 7})

    def test_translation_only_applies_to_fd_keys(self):
        assert not deep_match({"port": 4}, {"port": 9}, fd_translation={4: 9})

    def test_nested_lists(self):
        assert deep_match({"fds": [1, 2]}, {"fds": [1, 2]})
        assert not deep_match({"fds": [1, 2]}, {"fds": [1]})


class TestStartupLog:
    def _log_with(self, *entries):
        log = StartupLog()
        for pid, stack, name, args, result in entries:
            log.record(pid, stack, call_stack_id(stack), name, args, result)
        return log

    def test_find_match_by_stack_and_name(self):
        log = self._log_with(
            (100, ["main", "init"], "socket", {}, 900),
            (100, ["main", "init"], "bind", {"fd": 900, "port": 80}, 0),
        )
        rec = log.find_match(100, call_stack_id(["main", "init"]), "bind")
        assert rec is not None and rec.args["port"] == 80

    def test_consumed_records_skipped(self):
        log = self._log_with(
            (100, ["main"], "socket", {}, 900),
            (100, ["main"], "socket", {}, 901),
        )
        sid = call_stack_id(["main"])
        first = log.find_match(100, sid, "socket")
        first.consumed = True
        second = log.find_match(100, sid, "socket")
        assert second is not first and second.result == 901

    def test_wrong_pid_no_match(self):
        log = self._log_with((100, ["main"], "socket", {}, 900))
        assert log.find_match(999, call_stack_id(["main"]), "socket") is None

    def test_created_fd_detection(self):
        log = self._log_with((100, ["main"], "socket", {}, 902))
        rec = next(log.records())
        assert rec.created_fds == [902] and rec.creates_immutable

    def test_socketpair_list_result(self):
        log = self._log_with((100, ["main"], "socketpair", {}, [904, 905]))
        rec = next(log.records())
        assert rec.created_fds == [904, 905]

    def test_fork_creates_pid(self):
        log = self._log_with((100, ["main"], "fork", {"name": "w"}, 102))
        rec = next(log.records())
        assert rec.created_pid == 102

    def test_unconsumed_immutable(self):
        log = self._log_with(
            (100, ["main"], "socket", {}, 900),
            (100, ["main"], "nanosleep", {"duration_ns": 5}, None),
        )
        omissions = log.unconsumed_immutable(100)
        assert len(omissions) == 1 and omissions[0].name == "socket"

    def test_startup_fds(self):
        log = self._log_with(
            (100, ["main"], "socket", {}, 900),
            (100, ["main"], "open", {"path": "/x"}, 901),
            (103, ["w"], "epoll_create", {}, 902),
        )
        assert log.startup_fds(100) == [900, 901]
        assert log.startup_fds(103) == [902]

    def test_reset_consumption(self):
        log = self._log_with((100, ["main"], "socket", {}, 900))
        rec = next(log.records())
        rec.consumed = True
        log.reset_consumption()
        assert not rec.consumed

    def test_memory_accounting_grows(self):
        log = StartupLog()
        before = log.memory_bytes
        log.record(1, ["m"], 0, "open", {"path": "/etc/conf"}, 900)
        assert log.memory_bytes > before


def unclaimed(stash: FdStash):
    """The ((src_pid, src_fd), stash_fd) pairs no process has claimed."""
    return [(key, fd) for key, fd in stash._slots.items() if not stash.is_claimed(*key)]


def lookup(inventory: ImmutableInventory, src_pid: int, src_fd: int):
    """The inventory entry for one old-version descriptor, or None."""
    return next(
        (e for e in inventory.fd_entries if (e.src_pid, e.src_fd) == (src_pid, src_fd)), None
    )


class TestFdStash:
    def test_claim_lifecycle(self):
        stash = FdStash()
        stash.add(100, 3, 600)
        assert stash.stash_fd_for(100, 3) == 600
        assert not stash.is_claimed(100, 3)
        stash.claim(100, 3, 3)
        assert stash.is_claimed(100, 3)
        assert unclaimed(stash) == []

    def test_unclaimed_listing(self):
        stash = FdStash()
        stash.add(100, 3, 600)
        stash.add(100, 4, 601)
        stash.claim(100, 3, 3)
        assert unclaimed(stash) == [((100, 4), 601)]


class TestInventory:
    def test_collect_walks_tree(self, kernel):
        from repro.kernel.process import sim_function

        @sim_function
        def child(sys):
            yield from sys.socket()
            while True:
                yield from sys.nanosleep(10_000_000)

        @sim_function
        def parent(sys):
            yield from sys.socket()
            yield from sys.fork(child, name="kid")
            while True:
                yield from sys.nanosleep(10_000_000)

        root = kernel.spawn_process(parent)
        kernel.run(max_steps=1_000)
        inventory = ImmutableInventory.collect(root, {})
        pids = {p.pid for p in root.tree()}
        assert set(inventory.pids) == pids
        # Parent socket inherited into child at fork: counted per process.
        assert len(inventory.fd_entries) >= 3

    def test_lookup(self):
        inventory = ImmutableInventory()
        obj = object()
        inventory.fd_entries.append(FdEntry(100, 3, obj, startup=True))
        assert lookup(inventory, 100, 3).obj is obj
        assert lookup(inventory, 100, 4) is None


class TestCoalesce:
    def test_merges_adjacent(self):
        merged = coalesce([(0x1000, 64), (0x1040, 64)])
        assert len(merged) == 1
        assert merged[0].base == 0x1000 and merged[0].size == 128

    def test_merges_within_gap(self):
        merged = coalesce([(0x1000, 64), (0x1080, 64)], gap=64)
        assert len(merged) == 1

    def test_keeps_distant_spans_separate(self):
        merged = coalesce([(0x1000, 64), (0x9000, 64)])
        assert len(merged) == 2

    def test_overlapping_spans(self):
        merged = coalesce([(0x1000, 128), (0x1040, 256)])
        assert len(merged) == 1
        assert merged[0].end == 0x1040 + 256

    def test_empty(self):
        assert coalesce([]) == []


class TestGlobalRealloc:
    def test_union_superobjects_across_pids(self):
        plan = GlobalRealloc()
        plan.add_heap_spans(100, [(0x1000, 64)])
        plan.add_heap_spans(101, [(0x1000, 64), (0x5000, 32)])
        union = plan.union_superobjects()
        assert len(union) == 2

    def test_apply_union_reserves(self, heap):
        plan = GlobalRealloc()
        base = heap.base + 4096
        plan.add_heap_spans(1, [(base, 256)])
        reserved = plan.apply_union_to_heap(heap)
        assert len(reserved) == 1
        assert heap.reserved_containing(base + 10) is not None

    def test_pin_symbols_and_libraries(self):
        plan = GlobalRealloc()
        plan.pin_symbol("conf", 0x600010)
        plan.pin_library("libcrypto", 0x7F000000)
        assert plan.pinned_symbols == {"conf": 0x600010}
        assert plan.lib_bases == {"libcrypto": 0x7F000000}
