"""Unit-level tests for the state-transfer engine on crafted worlds.

These bypass the controller: build two small program instances (old and
new), quiesce nothing, and drive ``StateTransfer`` directly, so individual
pairing/transform/fixup behaviours can be asserted in isolation.
"""

import pytest

from repro.errors import ConflictError
from repro.kernel import Kernel
from repro.mcr.config import TransferCostModel
from repro.mcr.tracing.transfer import StateTransfer
from repro.runtime.annotations import Annotations
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import GlobalVar
from repro.types.descriptors import (
    ArrayType,
    CHAR,
    INT32,
    INT64,
    PointerType,
    StructType,
)

from tests.helpers import boot_test_program, make_test_program

NODE_V1 = StructType("node", [("value", INT32), ("next", PointerType(None, name="node*"))])
NODE_V2 = StructType(
    "node", [("value", INT32), ("new", INT32), ("next", PointerType(None, name="node*"))]
)


def _world(globals_, types, version="1", kernel=None):
    program = make_test_program(globals_, types=types, version=version)
    return boot_test_program(program, kernel=kernel)


def _pair_worlds(globals_v1, types_v1, globals_v2=None, types_v2=None):
    kernel = Kernel()
    k1, s1, old = _world(globals_v1, types_v1, "1", kernel)
    k2, s2, new = _world(globals_v2 or globals_v1, types_v2 or types_v1, "2", kernel)
    return kernel, old, new


class TestPairingAndTransform:
    def test_dirty_global_transferred_by_symbol(self):
        kernel, old, new = _pair_worlds([GlobalVar("counter", INT64)], {})
        old.crt.gset("counter", 41)
        report = StateTransfer(old, new, new.program).run()
        assert new.crt.gget("counter") == 41

    def test_clean_global_skipped(self):
        kernel, old, new = _pair_worlds([GlobalVar("counter", INT64, init=7)], {})
        new.crt.gset("counter", 99)  # the new version's own value
        report = StateTransfer(old, new, new.program).run()
        # counter was startup-initialized and clean in old -> skipped.
        assert new.crt.gget("counter") == 99
        assert any(s.objects_skipped_clean for s in report.per_process)

    def test_linked_list_relocated_and_transformed(self):
        kernel, old, new = _pair_worlds(
            [GlobalVar("head", PointerType(NODE_V1, name="node*"))],
            {"node": NODE_V1},
            [GlobalVar("head", PointerType(NODE_V2, name="node*"))],
            {"node": NODE_V2},
        )
        crt = old.crt
        thread = old.threads[1]
        n2 = crt.malloc_typed(thread, NODE_V1)
        crt.set(n2, NODE_V1, "value", 20)
        n1 = crt.malloc_typed(thread, NODE_V1)
        crt.set(n1, NODE_V1, "value", 10)
        crt.set(n1, NODE_V1, "next", n2)
        crt.gset("head", n1)
        StateTransfer(old, new, new.program).run()
        new_head = new.crt.gget("head")
        assert new_head != 0
        assert new.crt.get(new_head, NODE_V2, "value") == 10
        assert new.crt.get(new_head, NODE_V2, "new") == 0  # default-initialized
        nxt = new.crt.get(new_head, NODE_V2, "next")
        assert new.crt.get(nxt, NODE_V2, "value") == 20

    def test_interior_pointer_offset_preserved(self):
        kernel, old, new = _pair_worlds(
            [GlobalVar("p_into", PointerType(None))], {"node": NODE_V1}
        )
        crt = old.crt
        node = crt.malloc_typed(old.threads[1], NODE_V1)
        crt.set(node, NODE_V1, "value", 5)
        crt.gset("p_into", node + 4)  # points at a field, not the base
        StateTransfer(old, new, new.program).run()
        new_ptr = new.crt.gget("p_into")
        tag = new.tags.find_containing(new_ptr)
        assert tag is not None
        assert new_ptr - tag.address == 4

    def test_immutable_object_kept_at_same_address(self):
        kernel, old, new = _pair_worlds([GlobalVar("b", ArrayType(CHAR, 8))], {})
        crt = old.crt
        hidden = crt.malloc(48)
        old.space.write_bytes(hidden, b"hidden-data!")
        old.space.write_word(crt.global_addr("b"), hidden)
        # Reserve the span in the new heap (the controller's realloc step).
        chunk = old.heap.find_chunk(hidden)
        new.heap.reserve_range(chunk.base, chunk.total_size)
        StateTransfer(old, new, new.program).run()
        assert new.space.read_bytes(hidden, 12) == b"hidden-data!"
        assert new.space.read_word(new.crt.global_addr("b")) == hidden

    def test_pointer_to_dropped_global_conflicts(self):
        kernel, old, new = _pair_worlds(
            [GlobalVar("keep", PointerType(None)), GlobalVar("gone", INT64)],
            {},
            [GlobalVar("keep", PointerType(None))],  # v2 dropped "gone"
            {},
        )
        crt = old.crt
        crt.gset("gone", 1)  # dirty so it matters
        crt.gset("keep", crt.global_addr("gone"))  # live pointer to it
        with pytest.raises(ConflictError):
            StateTransfer(old, new, new.program).run()

    def test_nonupdatable_type_change_conflicts(self):
        kernel, old, new = _pair_worlds(
            [GlobalVar("b", ArrayType(CHAR, 8)),
             GlobalVar("head", PointerType(NODE_V1, name="node*"))],
            {"node": NODE_V1},
            [GlobalVar("b", ArrayType(CHAR, 8)),
             GlobalVar("head", PointerType(NODE_V2, name="node*"))],
            {"node": NODE_V2},
        )
        crt = old.crt
        node = crt.malloc_typed(old.threads[1], NODE_V1)
        crt.gset("head", node)
        # Hide a pointer to the node: it becomes nonupdatable...
        old.space.write_word(crt.global_addr("b"), node)
        chunk = old.heap.find_chunk(node)
        new.heap.reserve_range(chunk.base, chunk.total_size)
        # ...so changing its type must conflict.
        with pytest.raises(ConflictError):
            StateTransfer(old, new, new.program).run()

    def test_object_handler_resolves_type_conflict(self):
        kernel, old, new = _pair_worlds(
            [GlobalVar("b", ArrayType(CHAR, 8)),
             GlobalVar("head", PointerType(NODE_V1, name="node*"))],
            {"node": NODE_V1},
            [GlobalVar("b", ArrayType(CHAR, 8)),
             GlobalVar("head", PointerType(NODE_V2, name="node*"))],
            {"node": NODE_V2},
        )
        crt = old.crt
        node = crt.malloc_typed(old.threads[1], NODE_V1)
        crt.set(node, NODE_V1, "value", 9)
        crt.gset("head", node)
        old.space.write_word(crt.global_addr("b"), node)
        chunk = old.heap.find_chunk(node)
        new.heap.reserve_range(chunk.base, chunk.total_size)

        def node_handler(context):
            context.skip = True  # user decides: leave the old bytes alone

        annotations = new.program.annotations
        annotations.MCR_ADD_OBJ_HANDLER("node", node_handler)
        report = StateTransfer(old, new, new.program).run()
        assert report is not None  # no conflict raised

    def test_semantic_handler_rewrites_value(self):
        kernel, old, new = _pair_worlds([GlobalVar("count", INT64)], {})
        old.crt.gset("count", 3)

        def unit_change(context):
            context.transformed = context.transformed * 1000

        new.program.annotations.MCR_ADD_OBJ_HANDLER("count", unit_change)
        StateTransfer(old, new, new.program).run()
        assert new.crt.gget("count") == 3000

    def test_startup_object_matched_by_site(self):
        """Same allocation call stack in both versions -> same object."""
        from repro.kernel.process import sim_function

        def make_main(version):
            @sim_function
            def alloc_main(sys):
                crt = sys.process.crt
                node = crt.malloc_typed(sys.thread, NODE_V1)
                crt.set(node, NODE_V1, "value", version)
                crt.gset("head", node)
                while True:
                    sys.loop_iter("main")
                    yield from sys.nanosleep(10_000_000)

            return alloc_main

        kernel = Kernel()
        program_v1 = make_test_program(
            [GlobalVar("head", PointerType(NODE_V1, name="node*"))],
            types={"node": NODE_V1},
            main=make_main(1),
        )
        program_v1.quiescent_points = {("alloc_main", "nanosleep")}
        k1, s1, old = boot_test_program(program_v1, kernel=kernel)
        program_v2 = make_test_program(
            [GlobalVar("head", PointerType(NODE_V1, name="node*"))],
            types={"node": NODE_V1},
            main=make_main(2),
        )
        program_v2.quiescent_points = {("alloc_main", "nanosleep")}
        k2, s2, new = boot_test_program(program_v2, kernel=kernel)
        # Dirty the old node post-startup so it must transfer.
        old_node = old.crt.gget("head")
        old.crt.set(old_node, NODE_V1, "value", 111)
        StateTransfer(old, new, new.program).run()
        new_node = new.crt.gget("head")
        # The new version's OWN startup allocation received the content.
        assert new.crt.get(new_node, NODE_V1, "value") == 111
        chunk = new.heap.find_chunk(new_node)
        assert chunk.startup  # reused, not freshly malloc'd


class TestReportAccounting:
    def test_parallel_time_model(self):
        kernel, old, new = _pair_worlds([GlobalVar("x", INT64)], {})
        old.crt.gset("x", 1)
        transfer = StateTransfer(old, new, new.program)
        report = transfer.run()
        stats = report.per_process[0]
        expected = (
            TransferCostModel.BASE_COORDINATION_NS
            + TransferCostModel.PROCESS_CHANNEL_SETUP_NS
            + stats.work_ns()
        )
        assert report.total_ns == expected

    def test_table2_aggregation(self):
        kernel, old, new = _pair_worlds(
            [GlobalVar("head", PointerType(NODE_V1, name="node*"))],
            {"node": NODE_V1},
        )
        crt = old.crt
        node = crt.malloc_typed(old.threads[1], NODE_V1)
        crt.gset("head", node)
        report = StateTransfer(old, new, new.program).run()
        table2 = report.aggregate_table2()
        assert table2["precise"]["ptr"] >= 1
