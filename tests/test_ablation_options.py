"""Tests for the optional mechanisms (paper's 'not implemented yet' items
and run-time policies) that this reproduction implements behind config."""

import inspect

import pytest

from repro.bench import fuzz, memusage, spec2006, table1, table2, table3
from repro.checkpoint import WarmStandby, restore_image
from repro.clock import VirtualClock, fmt_ms
from repro.fleet import Fleet, Node
from repro.fleet.failover import FailoverDrill
from repro.fleet.migration import MigrationDrill
from repro.fleet.orchestrator import NodeOutcome, Orchestrator, RolloutReport
from repro.kernel.kernel import Barrier
from repro.mcr.config import MCRConfig
from repro.mcr.controller import LiveUpdateController
from repro.mcr.ctl import McrCtl
from repro.mcr.quiescence.profiler import QuiescenceProfiler
from repro.mcr.reinit.replay import ReplayEngine
from repro.mcr.tracing.graph import GraphBuilder
from repro.mcr.tracing.invariants import apply_invariants
from repro.mcr.tracing.transfer import (
    ProcessTransferStats,
    StateTransfer,
    TransferReport,
)
from repro.obs.export import spans_to_trace_events
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.runtime.cruntime import SharedLib
from repro.runtime.program import GlobalVar, Program
from repro.types.descriptors import ArrayType, CHAR, INT64, PointerType
from repro.workloads import FtpBench, profiles
from repro.workloads.client import ClientLatencyLog, ClientPerceived, connect_with_retry

from tests.helpers import boot_test_program, make_test_program
from repro.kernel import Kernel


def _world(globals_, kernel=None):
    program = make_test_program(globals_)
    return boot_test_program(program, kernel=kernel)


class TestInteriorOnlyNonupdatable:
    def _trace_with(self, interior_only, point_at_base):
        from repro.types.descriptors import INT32, StructType

        node = StructType("n", [("a", INT32), ("b", INT32), ("c", INT32)])
        kernel, session, proc = _world([GlobalVar("b", ArrayType(CHAR, 8))])
        crt = proc.crt
        # A *typed* target: precise tracing handles its interior, so only
        # the likely-pointer invariants decide its updatability.
        target = crt.malloc_typed(proc.threads[1], node)
        value = target if point_at_base else target + 4
        proc.space.write_word(crt.global_addr("b"), value)
        config = MCRConfig(interior_only_nonupdatable=interior_only)
        trace = apply_invariants(GraphBuilder(proc, config).build())
        return trace.objects[target]

    def test_strict_mode_pins_base_targets(self):
        record = self._trace_with(interior_only=False, point_at_base=True)
        assert record.immutable and record.nonupdatable

    def test_refined_mode_keeps_base_targets_updatable(self):
        record = self._trace_with(interior_only=True, point_at_base=True)
        assert record.immutable          # still cannot be relocated...
        assert not record.nonupdatable   # ...but can be type-transformed

    def test_refined_mode_still_pins_interior_targets(self):
        record = self._trace_with(interior_only=True, point_at_base=False)
        assert record.immutable and record.nonupdatable


class TestSharedLibTransfer:
    def _world_with_lib(self, kernel=None):
        kernel, session, proc = _world([GlobalVar("lib_ptr", PointerType(None))], kernel)
        lib = SharedLib(proc, "libstate", 8192)
        state = lib.alloc(64)
        proc.space.write_bytes(state, b"library-internal-state")
        proc.crt.gset("lib_ptr", state)
        return kernel, proc, lib, state

    def test_default_skips_library_contents(self):
        kernel, proc, lib, state = self._world_with_lib()
        trace = GraphBuilder(proc).build()
        record = trace.objects.get(state)
        assert record is not None  # the object is known (pointer target)...
        # ...but nothing *inside* it was scanned: a pointer hidden in lib
        # state is not discovered under the default policy.
        hidden_target = proc.crt.malloc(32)
        proc.space.write_word(state + 8, hidden_target)
        trace = GraphBuilder(proc).build()
        assert hidden_target not in trace.objects

    def test_opt_in_scans_library_state(self):
        kernel, proc, lib, state = self._world_with_lib()
        hidden_target = proc.crt.malloc(32)
        proc.space.write_word(state + 8, hidden_target)
        config = MCRConfig(transfer_shared_libs=True)
        trace = GraphBuilder(proc, config).build()
        assert hidden_target in trace.objects

    def test_opt_in_transfers_lib_bytes(self):
        kernel = Kernel()
        k, old, lib, state = self._world_with_lib(kernel)
        # New version with the same lib at the same base (prelink).
        program_v2 = make_test_program([GlobalVar("lib_ptr", PointerType(None))], version="2")
        program_v2.pinned_symbols = {}
        k2, s2, new = boot_test_program(program_v2, kernel=kernel)
        SharedLib(new, "libstate", 8192, base=lib.base)
        config = MCRConfig(transfer_shared_libs=True)
        StateTransfer(old, new, program_v2, config).run()
        assert new.space.read_bytes(state, 22) == b"library-internal-state"

    def test_default_does_not_transfer_lib_bytes(self):
        kernel = Kernel()
        k, old, lib, state = self._world_with_lib(kernel)
        program_v2 = make_test_program([GlobalVar("lib_ptr", PointerType(None))], version="2")
        k2, s2, new = boot_test_program(program_v2, kernel=kernel)
        SharedLib(new, "libstate", 8192, base=lib.base)
        StateTransfer(old, new, program_v2).run()
        assert new.space.read_bytes(state, 4) == b"\x00\x00\x00\x00"


class TestDirtyFilterSwitch:
    def test_disabled_filter_transfers_clean_objects(self):
        kernel = Kernel()
        program = make_test_program([GlobalVar("counter", INT64, init=7)])
        k1, s1, old = boot_test_program(program, kernel=kernel)
        program2 = make_test_program([GlobalVar("counter", INT64, init=7)], version="2")
        k2, s2, new = boot_test_program(program2, kernel=kernel)
        new.crt.gset("counter", 99)
        # counter is clean in old; with the filter off it transfers anyway.
        StateTransfer(old, new, program2, use_dirty_filter=False).run()
        assert new.crt.gget("counter") == 7


def test_every_config_option_is_read_by_something():
    """A knob nothing consults is a lie in the signature: two such
    (``scan_char_arrays``, ``conservative_interior_pointers``) sat in
    ``MCRConfig`` unread until they were deleted.  Every ``__init__``
    parameter must be read as an attribute somewhere under ``src/repro``
    outside ``config.py`` itself (a plain assignment does not count)."""
    import re
    from pathlib import Path

    import repro

    src = Path(repro.__file__).resolve().parent
    text = "\n".join(
        path.read_text()
        for path in sorted(src.rglob("*.py"))
        if path != src / "mcr" / "config.py"
    )
    options = [p for p in inspect.signature(MCRConfig.__init__).parameters if p != "self"]
    assert len(options) == 8
    unread = [
        name for name in options
        if not re.search(rf"\.{name}\b(?!\s*=[^=])", text)
    ]
    assert not unread, f"MCRConfig options nothing reads: {unread}"


# Set to nothing but their defaults anywhere; each is now a constant
# beside its one reader: the quiescence and unblockification timings
# (``mcr/libmcr.py``, ``quiescence/detection.py``, ``controller.py``),
# the kernel cost model (``kernel.STEP_COST_NS`` ...), the transfer cost
# model (``TransferCostModel``'s class constants), the SLO budget
# (``mcr.config.DOWNTIME_BUDGET_NS``), the drill and rollout shapes
# (class constants of the drills and the orchestrator) and the bench
# tables' rows.  Rollback verification always runs, a failover drill's
# durable image path is its own ``checkpoint_path`` argument, and an
# update's new version always inherits the running session's build.
REMOVED_OPTIONS = [
    (MCRConfig, "unblockify_slice_ns"),
    (MCRConfig, "unblockify_poll_cost_ns"),
    (MCRConfig, "unblockify_entry_cost_ns"),
    (MCRConfig, "quiescence_deadline_ns"),
    (MCRConfig, "quiescence_max_retries"),
    (MCRConfig, "quiescence_backoff_ns"),
    (MCRConfig, "verify_rollback"),
    (MCRConfig, "checkpoint_path"),
    (MCRConfig, "downtime_budget_ns"),
    (Kernel, "config"),
    (Kernel, "clock"),
    (LiveUpdateController, "build"),
    (LiveUpdateController, "cost"),
    (LiveUpdateController, "match_strategy"),
    (ReplayEngine, "match_strategy"),
    (McrCtl.live_update, "build"),
    (McrCtl.live_update, "cost"),
    (StateTransfer, "cost"),
    (ProcessTransferStats.work_ns, "cost"),
    (TransferReport.serial_total_ns, "cost"),
    (ClientPerceived, "budget_ns"),
    (ClientPerceived.measure, "budget_ns"),
    (Orchestrator, "budget_ns"),
    (Orchestrator, "window_ns"),
    (Orchestrator, "windows_between_waves"),
    (Orchestrator, "update_config"),
    (RolloutReport, "budget_ns"),
    (FailoverDrill, "windows"),
    (FailoverDrill, "window_ns"),
    (FailoverDrill, "requests_per_window"),
    (FailoverDrill, "detect_ns"),
    (MigrationDrill, "windows"),
    (MigrationDrill, "window_ns"),
    (MigrationDrill, "requests_per_window"),
    (MigrationDrill, "max_precopy_rounds"),
    (table1.run_table1, "servers"),
    (table2.run_table2, "servers"),
    (table2.trace_statistics, "held_connections"),
    (table3.run_table3, "servers"),
    (table3.run_table3, "configs"),
    (table3.measure_runtime_ns, "warmup"),
    (memusage.run_memusage, "servers"),
    (spec2006.run_spec, "benchmarks"),
    (fuzz.shrink_spec, "max_checks"),
    # The same audit over the rest of ``src/repro``.
    (Fleet.boot, "version"),
    (Fleet.boot, "build"),
    (Fleet.boot, "config"),
    (Node.boot, "build"),
    (Node.boot, "stall_ns"),
    (restore_image, "stall_ns"),
    (WarmStandby.resync, "node_id"),
    (NodeOutcome, "retried"),
    (ClientLatencyLog, "metric"),
    (ClientLatencyLog.histogram, "boundaries"),
    (connect_with_retry, "backoff_ns"),
    (FtpBench, "path"),
    (profiles.ftp_profile, "big_path"),
    (QuiescenceProfiler.profile, "observe_window_ns"),
    (spans_to_trace_events, "pid"),
    (spans_to_trace_events, "tid"),
    (Program, "pinned_symbols"),
    (Program, "lib_bases"),
    (Barrier, "expected"),
    (VirtualClock, "start_ns"),
    (fmt_ms, "digits"),
    (Histogram.from_values, "unit"),
    (MetricsRegistry.histogram, "unit"),
]


@pytest.mark.parametrize(
    "target, option",
    REMOVED_OPTIONS,
    ids=[f"{target.__qualname__}-{option}" for target, option in REMOVED_OPTIONS],
)
def test_one_value_options_are_gone(target, option):
    """Passing a removed option is a ``TypeError``, not a silent no-op."""
    with pytest.raises(TypeError):
        inspect.signature(target).bind_partial(**{option: None})
    if target is MCRConfig:
        assert not hasattr(MCRConfig(), option)


def test_kernel_config_is_gone():
    import repro.kernel
    import repro.kernel.kernel

    assert not hasattr(repro.kernel, "KernelConfig")
    assert not hasattr(repro.kernel.kernel, "KernelConfig")
    assert not hasattr(Kernel(), "config")
